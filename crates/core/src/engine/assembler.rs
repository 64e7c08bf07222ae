//! Window assembly from slice partials (paper Sections 4.3 and 5.1).
//!
//! A window is assembled the same way wherever its group ends — on the
//! sequential engine, at the sharded collector, at the cluster root: the
//! partials of its slices are merged and the query's functions finalized
//! per key. [`Assembler`] is the one type that does it. It keeps the
//! group's sealed-slice partials, assembles every window a slice ends
//! and garbage-collects the partials no window needs any more.
//!
//! **Where window ends come from** is a property of the group, decided
//! once from its [`GroupPlan`]:
//!
//! * an `Aligned` group holds fixed time windows only, and every slice it
//!   sees ends at an instant their specs punctuate, so each member's
//!   window ending with a slice is derived from its spec and selected by
//!   time range (merged slice ids are merger-local); ends shipped with a
//!   slice are ignored and partials are collected by the slice's
//!   low-watermark time. Runtime removal is the assembler's too
//!   ([`Assembler::remove_query`]).
//! * `Unfixed` and `Raw` groups take the [`crate::engine::WindowEnd`]s
//!   their slices carry, selected by slice ids and collected by the
//!   low-watermark id. Session, user-defined and count windows end where
//!   the data says, and a fixed window beside a count window must take
//!   the slicer's end too: the slicer closes a count slice after the
//!   event that fills the count window, so that slice may end on the
//!   fixed window's end, and an end derived at every slice end would
//!   assemble the window twice. Which windows a removed query still ends
//!   is their source's to say — the slicer, or the unfixed merger in
//!   front.

use std::cmp::Reverse;

use rustc_hash::FxHashMap;

use crate::engine::group::QueryGroup;
use crate::engine::merge::{
    finalize_sorted, last_window_end, query_infos, record_assembly, QueryInfo, SliceRange,
    SliceStore,
};
use crate::engine::slice::SealedSlice;
use crate::engine::terminal::GroupPlan;
use crate::obs::trace::TraceRecorder;
use crate::query::{QueryId, QueryResult};
use crate::time::Timestamp;
use crate::window::WindowKind;

/// Assembles window results from sealed slices of one query-group.
#[derive(Debug, Clone)]
pub struct Assembler {
    ends: Ends,
    store: SliceStore,
    /// Number of results emitted (paper: result materialization dominates
    /// beyond 10k queries, Figure 13a).
    results_emitted: u64,
    /// Provenance span recorder; `None` (the default) disables tracing.
    tracer: Option<TraceRecorder>,
}

/// Where an assembler's window ends come from (module docs).
#[derive(Debug, Clone)]
enum Ends {
    /// From the members' specs, members kept shortest window first.
    Spec(Vec<Member>),
    /// From the slices, each member looked up by id.
    Shipped(FxHashMap<QueryId, QueryInfo>),
}

/// A member query of a spec-ended assembler and, once it is removed, the
/// end of its last window that emits.
#[derive(Debug, Clone)]
struct Member {
    id: QueryId,
    info: QueryInfo,
    last_end: Option<Timestamp>,
}

impl Assembler {
    /// Creates an assembler for `group`, taking window ends as the
    /// group's plan says (module docs).
    pub fn new(group: &QueryGroup) -> Self {
        Self::with_plan(group, GroupPlan::of(group))
    }

    /// An assembler taking window ends as `plan` says. Spec-ended members
    /// are kept shortest window first: of the windows ending at one
    /// slice the shortest starts latest, so asking them in this order is
    /// asking short-first ([`SliceStore::merged_range`]).
    fn with_plan(group: &QueryGroup, plan: GroupPlan) -> Self {
        let infos = query_infos(group);
        let ends = match plan {
            GroupPlan::Aligned => {
                let member = |(id, info)| Member {
                    id,
                    info,
                    last_end: None,
                };
                let mut members: Vec<Member> = infos.map(member).collect();
                members.sort_by_key(|m| match m.info.window.kind {
                    WindowKind::Tumbling { length } | WindowKind::Sliding { length, .. } => length,
                    WindowKind::Session { .. } | WindowKind::UserDefined { .. } => 0,
                });
                Ends::Spec(members)
            }
            GroupPlan::Unfixed | GroupPlan::Raw => Ends::Shipped(infos.collect()),
        };
        Self {
            ends,
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

    /// Total results emitted so far.
    pub fn results_emitted(&self) -> u64 {
        self.results_emitted
    }

    /// Total slice-partial merge operations performed so far.
    pub fn merges(&self) -> u64 {
        self.store.merges()
    }

    /// Retires `query`, removed at event time `at` (runtime removal,
    /// Section 3.2), where this assembler derives window ends itself: its
    /// windows up to [`last_window_end`] still assemble as their slices
    /// arrive — slices in flight when the removal is announced included,
    /// so no barrier is needed and the call may come any time before the
    /// slice stream passes `at`, more than once — and the query is
    /// dropped with the first slice at or past that end. Returns `false`
    /// if the query is unknown, or if the slices say where its windows
    /// end: their source stops sending them.
    pub fn remove_query(&mut self, query: QueryId, at: Timestamp, immediate: bool) -> bool {
        let Ends::Spec(members) = &mut self.ends else {
            return false;
        };
        let Some(member) = members.iter_mut().find(|m| m.id == query) else {
            return false;
        };
        member.last_end = Some(last_window_end(&member.info.window, at, immediate));
        true
    }

    /// Ingests a sealed slice: stores its partials, assembles every window
    /// it ends, then garbage-collects unreachable partials.
    ///
    /// Windows of different queries frequently cover the *same* slice
    /// range (e.g. a thousand equal-length tumbling windows with different
    /// functions, Figure 9c); the store merges each distinct
    /// `(selection, range)` once and shares it across queries. The
    /// windows are asked shortest first (latest first slice first), so
    /// the windows over sort-based partials are one fold of the longest
    /// one, grown in place ([`SliceStore::merged_range`]). A slice ends
    /// at most one window per query, so each query's results still leave
    /// in window-end order.
    pub fn on_slice(&mut self, slice: SealedSlice, out: &mut Vec<QueryResult>) {
        let before = out.len();
        let end_ts = slice.end_ts;
        let store = &mut self.store;
        store.push(slice.id, slice.start_ts, end_ts, slice.data);
        match &mut self.ends {
            Ends::Spec(members) => {
                for Member { id, info, last_end } in members.iter() {
                    let Some(start) = info.window.fixed_window_ending_at(end_ts) else {
                        continue;
                    };
                    if last_end.is_some_and(|last| end_ts > last) {
                        continue;
                    }
                    let merged = store.merged_range(SliceRange::Span(start, end_ts), info);
                    finalize_sorted(*id, &info.functions, merged, start, end_ts, out);
                }
                members.retain(|m| {
                    let gone = m.last_end.is_some_and(|last| last <= end_ts);
                    if gone {
                        store.query_removed(&m.info);
                    }
                    !gone
                });
                store.gc_span(slice.low_watermark_ts);
            }
            Ends::Shipped(queries) => {
                let mut ends = slice.ends;
                ends.sort_by_key(|end| Reverse(end.first_slice));
                for end in &ends {
                    // Unknown ids are tolerated: in-flight ends of queries
                    // removed at runtime (Section 3.2) may still arrive.
                    let Some(info) = queries.get(&end.query) else {
                        continue;
                    };
                    let range = SliceRange::Ids(end.first_slice, end.last_slice);
                    let merged = store.merged_range(range, info);
                    finalize_sorted(
                        end.query,
                        &info.functions,
                        merged,
                        end.start_ts,
                        end.end_ts,
                        out,
                    );
                }
                store.gc_ids(slice.low_watermark);
            }
        }
        self.results_emitted += (out.len() - before) as u64;
        record_assembly(&mut self.tracer, slice.trace, &out[before..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{AggFunction, OperatorBundle, OperatorKind};
    use crate::engine::analyzer::QueryAnalyzer;
    use crate::engine::merge::tests::{
        constant_size_functions, for_cases, group, sorted, FUNCTIONS, TICK,
    };
    use crate::engine::merge::{merge_keyed, AlignedSliceMerger, KeyedBundles, RangeAnswer};
    use crate::engine::slice::{SliceData, WindowEnd};
    use crate::engine::slicer::GroupSlicer;
    use crate::engine::terminal::RawTerminal;
    use crate::event::Event;
    use crate::metrics::EngineMetrics;
    use crate::query::Query;
    use crate::window::WindowSpec;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

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

    /// Every way a window's answer is put together hands `finalize_sorted`
    /// a complete, ascending key list, checked on each assembler's own
    /// output before any drain could repair its order: a borrowed
    /// one-slice range (tumbling, one slice long), a suffix-cache answer
    /// (constant-size sliding), links of a sort-based selection's fold
    /// (two sliding lengths whose slices bring new keys), and memo scans
    /// while the store is unordered (an id gap, until gc passes it).
    #[test]
    fn every_answer_kind_emits_its_keys_in_ascending_order() {
        use crate::predicate::Predicate;
        let q = |id, window: Result<WindowSpec, _>, f, p| {
            Query::new(id, window.unwrap(), f).filtered(p)
        };
        let (high, low) = (Predicate::ValueAbove(50.0), Predicate::ValueBelow(50.0));
        let g = group(vec![
            q(1, WindowSpec::tumbling_time(TICK), AggFunction::Sum, high),
            q(
                2,
                WindowSpec::sliding_time(4 * TICK, TICK),
                AggFunction::Max,
                high,
            ),
            q(
                3,
                WindowSpec::sliding_time(3 * TICK, TICK),
                AggFunction::Median,
                low,
            ),
            q(
                4,
                WindowSpec::sliding_time(5 * TICK, TICK),
                AggFunction::Median,
                low,
            ),
        ]);
        let infos: Vec<(QueryId, QueryInfo)> = query_infos(&g).collect();
        let mut rng = SmallRng::seed_from_u64(0x36);
        let mut by_id = Assembler::with_plan(&g, GroupPlan::Raw);
        let mut by_span = Assembler::new(&g);
        let mut sealed: Vec<SealedSlice> = Vec::new();
        let mut cached = 0;
        for tick in 0..60u64 {
            // One id gap: the store is unordered until gc drops the
            // slices before it.
            let id = tick + u64::from(tick >= 20);
            let (start_ts, end_ts) = (tick * TICK, (tick + 1) * TICK);
            let mut data = SliceData::new(g.selections.len());
            for (sel, map) in data.per_selection.iter_mut().enumerate() {
                // Up to 40 keys a slice, inserted in no particular order.
                for _ in 0..rng.gen_range(1..40) {
                    let key = rng.gen_range(0u32..40) * 7919 % 40;
                    let bundle = map
                        .entry(key)
                        .or_insert_with(|| OperatorBundle::new(g.selections[sel].operators));
                    bundle.update(f64::from(rng.gen_range(1u32..5)));
                }
                map.values_mut().for_each(OperatorBundle::seal);
            }
            let first_at = |start: Timestamp| {
                let at = sealed.partition_point(|s| s.start_ts < start);
                sealed.get(at).map_or(id, |s| s.id)
            };
            let ends: Vec<WindowEnd> = infos
                .iter()
                .filter_map(|(query, info)| {
                    let start = info.window.fixed_window_ending_at(end_ts)?;
                    Some(WindowEnd {
                        query: *query,
                        first_slice: first_at(start),
                        last_slice: id,
                        start_ts: start,
                        end_ts,
                    })
                })
                .collect();
            // The longest window ending at the next slice starts 4 ticks
            // before this one ends.
            let low_ts = end_ts.saturating_sub(4 * TICK);
            let slice = SealedSlice {
                id,
                start_ts,
                end_ts,
                data,
                ends,
                session_gaps: Vec::new(),
                low_watermark: first_at(low_ts),
                low_watermark_ts: low_ts,
                trace: None,
            };
            sealed.push(slice.clone());
            let mut want = Vec::new();
            for (query, info) in &infos {
                let Some(start) = info.window.fixed_window_ending_at(end_ts) else {
                    continue;
                };
                let mut merged = KeyedBundles::default();
                for s in sealed.iter().filter(|s| s.start_ts >= start) {
                    merge_keyed(&mut merged, &s.data.per_selection[info.selection]);
                }
                let keys = sorted(&merged);
                let answer = RangeAnswer {
                    bundles: &merged,
                    keys: &keys,
                };
                finalize_sorted(*query, &info.functions, answer, start, end_ts, &mut want);
            }
            crate::query::sort_results(&mut want);
            let (mut got_by_id, mut got_by_span) = (Vec::new(), Vec::new());
            by_id.on_slice(slice.clone(), &mut got_by_id);
            by_span.on_slice(slice, &mut got_by_span);
            cached += by_id.cached_bundles() + by_span.cached_bundles();
            for (name, mut got) in [("by id", got_by_id), ("by span", got_by_span)] {
                // Each window's results are one run, strictly ascending.
                for pair in got.windows(2) {
                    let window = |r: &QueryResult| (r.query, r.window_start, r.window_end);
                    if window(&pair[0]) == window(&pair[1]) {
                        assert!(
                            pair[0].key < pair[1].key,
                            "tick {tick} {name}: {:?} before {:?}",
                            pair[0],
                            pair[1]
                        );
                    }
                }
                let mut windows: Vec<_> = got.iter().map(|r| (r.query, r.window_start)).collect();
                windows.dedup();
                let runs = windows.len();
                windows.sort_unstable();
                windows.dedup();
                assert_eq!(runs, windows.len(), "tick {tick} {name}: a window split");
                crate::query::sort_results(&mut got);
                assert_eq!(got, want, "tick {tick} {name}");
            }
        }
        assert!(cached > 0, "the suffix cache answered nothing");
        assert!(sealed.len() > 20);
    }

    /// The assembler before the caches: every window end is one range
    /// scan. `skip(slice index, query)` leaves a window out. Returns the
    /// results and the bundle merges they took.
    fn assemble_by_scan(
        g: &QueryGroup,
        slices: &[SealedSlice],
        skip: impl Fn(usize, QueryId) -> bool,
    ) -> (Vec<QueryResult>, u64) {
        let infos: FxHashMap<QueryId, QueryInfo> = query_infos(g).collect();
        let mut store = SliceStore::default();
        let mut out = Vec::new();
        let mut merges = 0;
        for (at, slice) in slices.iter().enumerate() {
            store.push(slice.id, slice.start_ts, slice.end_ts, slice.data.clone());
            for end in slice.ends.iter().filter(|e| !skip(at, e.query)) {
                let q = &infos[&end.query];
                let mut merged = KeyedBundles::default();
                let range = SliceRange::Ids(end.first_slice, end.last_slice);
                merges += store.merge_range(range, q.selection, &mut merged);
                let keys = sorted(&merged);
                let answer = RangeAnswer {
                    bundles: &merged,
                    keys: &keys,
                };
                finalize_sorted(
                    end.query,
                    &q.functions,
                    answer,
                    end.start_ts,
                    end.end_ts,
                    &mut out,
                );
            }
            store.gc_ids(slice.low_watermark);
        }
        crate::query::sort_results(&mut out);
        (out, merges)
    }

    /// Seeded streams through the slicer into an [`Assembler`] taking the
    /// slicer's ends and — merged like a collector would — into one
    /// deriving them from the specs, against the scan:
    /// each of the eleven functions alone and together, several lengths
    /// and steps on one selection (time and count) and a query removed
    /// mid-window. Groups holding a non-decomposable sort must not
    /// cache — their chains do not outlive a slice end — yet take fewer
    /// merges than the scan. Values are powers of two, so answers agree
    /// bit for bit however caches and chains associate them (fractional
    /// values: `tests/properties.rs`).
    #[test]
    fn assembly_equals_the_scan_for_every_function() {
        let sets = FUNCTIONS
            .iter()
            .map(|f| vec![*f])
            .chain([FUNCTIONS.to_vec(), constant_size_functions()]);
        for functions in sets {
            let query = |id, window: Result<WindowSpec, _>| {
                Query::with_functions(id, window.unwrap(), functions.clone())
            };
            // Count windows cut slices between the time punctuations, so
            // only the aligned group without them is also assembled by
            // span.
            for counted in [false, true] {
                let mut queries = vec![
                    query(1, WindowSpec::sliding_time(1_600, 100)),
                    query(2, WindowSpec::sliding_time(1_600, 50)),
                    query(3, WindowSpec::sliding_time(2_400, 100)),
                    query(4, WindowSpec::tumbling_time(300)),
                    query(6, WindowSpec::sliding_time(400, 100)),
                ];
                if counted {
                    queries.push(query(5, WindowSpec::sliding_count(64, 4)));
                }
                let g = group(queries);
                let sorts = g.selections[0]
                    .operators
                    .contains(OperatorKind::NonDecomposableSort);
                let mut most_cached = 0;
                for_cases(4, |seed, rng| {
                    let context = format!("seed {seed:#x} functions {functions:?}");
                    let slices = arb_slices(rng, &g);
                    let removed_at = slices.len() / 2;
                    let skip = |at: usize, query: QueryId| query == 3 && at >= removed_at;
                    let (want, scan_merges) = assemble_by_scan(&g, &slices, skip);
                    assert_eq!(want.iter().any(|r| r.query == 5), counted, "{context}");

                    let mut assembler = Assembler::with_plan(&g, GroupPlan::Raw);
                    let mut merger = AlignedSliceMerger::new(1);
                    let mut by_span = (!counted).then(|| Assembler::new(&g));
                    let (mut got, mut got_by_span) = (Vec::new(), Vec::new());
                    for (at, slice) in slices.iter().enumerate() {
                        // A slicer that removed the query stops ending
                        // its windows.
                        let mut sliced = slice.clone();
                        sliced.ends.retain(|end| !skip(at, end.query));
                        assembler.on_slice(sliced, &mut got);
                        let mut cached = assembler.cached_bundles();
                        if let Some(by_span) = &mut by_span {
                            if at == removed_at {
                                assert!(by_span.remove_query(3, slices[at - 1].end_ts, true));
                            }
                            merger.on_slice(slice.clone(), 1);
                            for merged in merger.take_ready() {
                                by_span.on_slice(merged, &mut got_by_span);
                            }
                            cached += by_span.cached_bundles();
                        }
                        most_cached = most_cached.max(cached);
                    }
                    crate::query::sort_results(&mut got);
                    assert_eq!(got, want, "{context}");
                    if sorts {
                        let merges = assembler.merges();
                        assert!(merges < scan_merges, "{context}: {merges} merges");
                    }
                    if by_span.is_some() {
                        crate::query::sort_results(&mut got_by_span);
                        assert_eq!(got_by_span, want, "{context} (by span)");
                    }
                });
                assert_eq!(
                    most_cached == 0,
                    sorts,
                    "{functions:?}: {most_cached} cached"
                );
            }
        }
    }

    /// What a slicer seals for a seeded stream of powers of two: random
    /// ones, or a ramp whose current Min/Max always sits in the slice
    /// about to be evicted.
    fn arb_slices(rng: &mut SmallRng, g: &QueryGroup) -> Vec<SealedSlice> {
        let shape = rng.gen_range(0u32..3);
        let mut slicer = GroupSlicer::new(g.clone());
        let mut slices = Vec::new();
        let mut ts = 0;
        for i in 0..rng.gen_range(200i32..500) {
            ts += rng.gen_range(0u64..40);
            let value = 2f64.powi(match shape {
                0 => rng.gen_range(-1i32..3),
                1 => 8 - i / 32,
                _ => i / 32 - 8,
            });
            slicer.on_event(&Event::new(ts, rng.gen_range(0u32..5), value), &mut slices);
        }
        slicer.on_watermark(ts + 1_000, &mut slices);
        slices
    }

    /// ROADMAP item 6 for the memos: over a long stream the bundles the
    /// suffix caches hold stay under (slices of the longest live
    /// window + 1) × keys per selection, `retained_slices` stays flat, and a
    /// query that stops ending windows — removed here, or only dropped
    /// upstream — takes its share of the stack with it at once. A group
    /// with sort-based partials (a sliding and a tumbling window whose
    /// ends coincide) caches nothing at all, and no store holds an
    /// answer of a slice end — chain links included — once `on_slice`
    /// has returned.
    fn cache_state_stays_flat(slices: u64) {
        let sorted = vec![AggFunction::Median, AggFunction::Sum];
        // (slices per window, slices per step) of queries 1 and 2.
        state_stays_flat(slices, constant_size_functions(), [(32, 1), (16, 1)]);
        state_stays_flat(slices, sorted, [(16, 16), (32, 1)]);
    }

    fn state_stays_flat(slices: u64, functions: Vec<AggFunction>, windows: [(u64, u64); 2]) {
        let keys = 16u32;
        let queries = [1, 2].map(|id| {
            let (length, step) = windows[id as usize - 1];
            let window = WindowSpec::sliding_time(length * TICK, step * TICK);
            Query::with_functions(id, window.unwrap(), functions.clone())
        });
        let g = group(queries.to_vec());
        let operators = g.selections[0].operators;
        let chains = operators.contains(OperatorKind::NonDecomposableSort);
        let mut by_id = Assembler::with_plan(&g, GroupPlan::Raw);
        let mut by_span = Assembler::new(&g);
        let mut out = Vec::new();
        let (mut peak, mut early_peak, mut scan_merges) = (0, 0, 0);
        for i in 0..slices {
            // Query 1 is dropped upstream after a third of the stream
            // and removed at the root; query 2 after two thirds.
            let live: &[(QueryId, (u64, u64))] = match 3 * i / slices {
                0 => &[(1, windows[0]), (2, windows[1])],
                1 => &[(2, windows[1])],
                _ => &[],
            };
            if i == slices / 3 {
                by_span.remove_query(1, i * TICK, true);
            } else if i == 2 * (slices / 3) + 1 {
                by_span.remove_query(2, i * TICK, true);
            }
            let mut data = SliceData::new(1);
            for key in 0..keys {
                let mut bundle = OperatorBundle::new(operators);
                bundle.update(f64::from(key) + (i % 7) as f64);
                bundle.seal();
                data.per_selection[0].insert(key, bundle);
            }
            let longest = live.iter().map(|(_, (n, _))| *n).max().unwrap_or(1);
            let low = (i + 2).saturating_sub(longest);
            let ends: Vec<WindowEnd> = live
                .iter()
                .filter(|(_, (n, step))| i + 1 >= *n && (i + 1) % step == 0)
                .map(|(query, (n, _))| WindowEnd {
                    query: *query,
                    first_slice: i + 1 - n,
                    last_slice: i,
                    start_ts: (i + 1 - n) * TICK,
                    end_ts: (i + 1) * TICK,
                })
                .collect();
            scan_merges += ends
                .iter()
                .map(|end| (end.last_slice - end.first_slice) * u64::from(keys))
                .sum::<u64>();
            let slice = SealedSlice {
                id: i,
                start_ts: i * TICK,
                end_ts: (i + 1) * TICK,
                data,
                ends,
                session_gaps: Vec::new(),
                low_watermark: low,
                low_watermark_ts: low * TICK,
                trace: None,
            };
            by_id.on_slice(slice.clone(), &mut out);
            by_span.on_slice(slice, &mut out);
            out.clear();
            for (store, cached) in [
                (&by_id.store, by_id.cached_bundles()),
                (&by_span.store, by_span.cached_bundles()),
            ] {
                let retained = store.len() as u64;
                assert!(retained <= longest, "slice {i}: {retained} retained");
                let held = store.held_answers();
                assert_eq!(held, 0, "slice {i}: answers outlive it");
                let allowed = match live {
                    _ if chains => 0,
                    [] => 0,
                    _ => (longest + 1) * u64::from(keys),
                };
                assert!(
                    cached as u64 <= allowed,
                    "slice {i}: {cached} bundles cached, {allowed} allowed"
                );
                peak = peak.max(cached);
                if i < 100 {
                    early_peak = peak;
                }
            }
        }
        if chains {
            // Of two windows ending together the longer, asked second,
            // starts from the shorter's answer.
            let merges = by_id.merges().max(by_span.merges());
            assert!(merges < scan_merges, "the chains were never used");
        } else {
            assert!(early_peak > 0, "the caches were never used");
        }
        assert_eq!(
            peak, early_peak,
            "cached state grew after the first 100 slices"
        );
        assert_eq!(by_id.cached_bundles() + by_span.cached_bundles(), 0);
    }

    #[test]
    fn cache_state_stays_flat_and_is_released() {
        cache_state_stays_flat(3_000);
    }

    #[test]
    #[ignore = "soak: run in release (ci.yml)"]
    fn cache_state_stays_flat_over_1e5_slices() {
        cache_state_stays_flat(100_000);
    }
}
