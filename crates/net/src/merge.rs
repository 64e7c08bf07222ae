//! Merging machinery for intermediate and root nodes (paper Section 5).
//!
//! * [`AlignedSliceMerger`] / [`TimeAssembler`] — the aligned-slice merge
//!   and the time-range window assembly of fixed-window groups. They are
//!   `desis_core::engine::merge`'s: a child node is merged exactly like a
//!   shard, and this module re-exports the two types.
//! * [`UnfixedRootMerger`] — session and user-defined windows slice at
//!   data-driven points that differ per stream; the root keeps per-child
//!   partials, extracts per-child window contributions, and terminates
//!   global sessions when the children's latest gaps cover each other
//!   (Section 5.1.2).
//! * [`EventMerger`] — watermark-aligned reordering of raw event streams
//!   for root-processed groups (count windows, centralized baselines).
//! * [`PartialAssembler`] / [`WindowPartialMerger`] — the Disco baseline's
//!   per-*window* partials (Section 5, "Disco has to send partial results
//!   per window").
//!
//! Everything here scans, merges, finalizes and garbage-collects slice
//! partials through the core slice-store kernel.

use std::collections::{BTreeMap, VecDeque};

use rustc_hash::FxHashMap;

use desis_core::engine::merge::{
    finalize_key, finalize_sorted, merge_keyed, merge_one, query_infos, record_assembly,
    KeyedBundles, QueryInfo, SliceRange, SliceStore,
};
use desis_core::engine::{QueryGroup, SealedSlice};
use desis_core::event::Event;
use desis_core::obs::trace::{SpanKind, TraceRecorder};
use desis_core::query::{QueryId, QueryResult};
use desis_core::time::Timestamp;
use desis_core::window::WindowKind;

pub use desis_core::engine::merge::{AlignedSliceMerger, TimeAssembler};

use crate::message::WindowPartial;
use crate::topology::NodeId;

/// A window contribution: event-time span plus its keyed partials.
type SpannedBundles = ((Timestamp, Timestamp), KeyedBundles);

// ---------------------------------------------------------------------
// Unfixed windows at the root (Section 5.1.2).
// ---------------------------------------------------------------------

/// One global session still open for merging: its event-time span
/// (`end` is `last_event + gap`) and the merged per-key partials.
#[derive(Debug)]
struct PendingSession {
    start: Timestamp,
    end: Timestamp,
    merged: KeyedBundles,
}

/// Session-merge state of one query (Section 5.1.2).
///
/// A child's local sessions are disjoint-or-touching: its next session
/// starts at or after the previous one's `last_ts + gap`. Two local
/// sessions therefore belong to the same global session exactly when
/// their spans *strictly* overlap — spans touching at the boundary stay
/// separate sessions (Section 2.1). Pending global sessions are the
/// connected components of contributed spans under strict overlap; a
/// pending session `[s, e)` is final once every child is known clear of
/// `e` (its gaps and session ends passed `e`, so no later local session
/// can start before `e`).
#[derive(Debug, Default)]
struct SessionState {
    /// Disjoint pending global sessions.
    pending: Vec<PendingSession>,
    /// Per child: the time before which it can open no further session
    /// (end of its latest reported session or gap).
    clear_until: FxHashMap<NodeId, Timestamp>,
}

impl SessionState {
    /// Folds one child session contribution in, merging every pending
    /// session whose span strictly overlaps (transitively bridging).
    fn absorb(&mut self, start: Timestamp, end: Timestamp, contribution: &KeyedBundles) {
        let mut merged = contribution.clone();
        let (mut start, mut end) = (start, end);
        let mut keep = Vec::with_capacity(self.pending.len() + 1);
        for p in self.pending.drain(..) {
            if p.start < end && start < p.end {
                start = start.min(p.start);
                end = end.max(p.end);
                merge_keyed(&mut merged, &p.merged);
            } else {
                keep.push(p);
            }
        }
        keep.push(PendingSession { start, end, merged });
        self.pending = keep;
    }

    /// The time below which no child can still open a session, or 0
    /// while some of the `expected` children has not reported yet.
    fn clear(&self, expected: usize) -> Timestamp {
        if self.clear_until.len() < expected {
            return 0;
        }
        self.clear_until.values().copied().min().unwrap_or(0)
    }
}

/// Root-side merger for groups containing session or user-defined
/// windows: child streams slice at different data-driven points, so the
/// root keeps per-child partials and merges per window.
#[derive(Debug)]
pub struct UnfixedRootMerger {
    queries: FxHashMap<QueryId, QueryInfo>,
    children: FxHashMap<NodeId, SliceStore>,
    expected_children: usize,
    fixed_pending: FxHashMap<(QueryId, Timestamp, Timestamp), (usize, KeyedBundles)>,
    sessions: FxHashMap<QueryId, SessionState>,
    /// B-tree on both levels: completed windows finalize in `QueryId`
    /// order and contributions merge in `NodeId` order, keeping
    /// user-defined-window emission independent of hash order.
    ud_queues: BTreeMap<QueryId, BTreeMap<NodeId, VecDeque<SpannedBundles>>>,
    /// Per-child reorder buffer: the gap-covering protocol (Section
    /// 5.1.2) compares the children's *latest* gaps, which is only
    /// meaningful when partials are consumed in event-time-aligned order;
    /// thread scheduling can otherwise deliver one child's whole stream
    /// first.
    buffered: BTreeMap<NodeId, VecDeque<SealedSlice>>,
    /// Event time each child is guaranteed to have passed.
    frontiers: FxHashMap<NodeId, Timestamp>,
    /// Global watermark (min over all covered streams).
    global_wm: Timestamp,
    /// Provenance span recorder; `None` (the default) disables tracing.
    recorder: Option<TraceRecorder>,
}

impl UnfixedRootMerger {
    /// Creates a merger expecting partials from `expected_children` local
    /// streams.
    pub fn new(group: &QueryGroup, expected_children: usize) -> Self {
        assert!(expected_children >= 1);
        Self {
            queries: query_infos(group).collect(),
            children: FxHashMap::default(),
            expected_children,
            fixed_pending: FxHashMap::default(),
            sessions: FxHashMap::default(),
            ud_queues: BTreeMap::default(),
            buffered: BTreeMap::default(),
            frontiers: FxHashMap::default(),
            global_wm: 0,
            recorder: None,
        }
    }

    /// Enables causal slice tracing: traced child partials record
    /// `MergeStart`/`MergeDone` and, when they complete windows,
    /// `WindowAssembled`/`ResultEmitted` spans.
    pub fn set_recorder(&mut self, recorder: TraceRecorder) {
        self.recorder = Some(recorder);
    }

    /// Partials held back waiting for other children (buffered slices
    /// plus windows awaiting more child contributions) — a merge-stall
    /// depth for observability.
    pub fn pending_len(&self) -> usize {
        self.buffered.values().map(|q| q.len()).sum::<usize>()
            + self.fixed_pending.len()
            + self
                .sessions
                .values()
                .map(|s| s.pending.len())
                .sum::<usize>()
    }

    /// Ingests one child partial (identified by its originating local
    /// node); completed windows are emitted once event time is aligned
    /// across children.
    pub fn on_slice(&mut self, origin: NodeId, partial: SealedSlice, out: &mut Vec<QueryResult>) {
        let frontier = self.frontiers.entry(origin).or_insert(0);
        *frontier = (*frontier).max(partial.end_ts);
        self.buffered.entry(origin).or_default().push_back(partial);
        self.release(out);
    }

    /// Advances the global watermark (idle children produce no slices but
    /// still vouch for time via watermarks).
    pub fn on_watermark(&mut self, wm: Timestamp, out: &mut Vec<QueryResult>) {
        if wm > self.global_wm {
            self.global_wm = wm;
            self.release(out);
        }
    }

    /// End of all streams: drain everything in event-time order, then
    /// finalize the sessions still pending (no stream can extend them).
    pub fn flush(&mut self, out: &mut Vec<QueryResult>) {
        self.global_wm = Timestamp::MAX;
        self.release(out);
        self.emit_sessions(Timestamp::MAX, out);
    }

    /// Stops merging windows for `query` (runtime removal, Section 3.2).
    pub fn remove_query(&mut self, query: QueryId) -> bool {
        self.sessions.remove(&query);
        self.ud_queues.remove(&query);
        self.fixed_pending.retain(|(q, _, _), _| *q != query);
        self.queries.remove(&query).is_some()
    }

    /// The event time up to which every expected stream has reported.
    fn safe_ts(&self) -> Timestamp {
        if self.global_wm == Timestamp::MAX {
            return Timestamp::MAX;
        }
        let mut safe = Timestamp::MAX;
        let mut seen = 0;
        for frontier in self.frontiers.values() {
            safe = safe.min((*frontier).max(self.global_wm));
            seen += 1;
        }
        if seen < self.expected_children {
            safe = safe.min(self.global_wm);
        }
        safe
    }

    /// Processes buffered partials in global end-timestamp order, up to
    /// the safe frontier.
    fn release(&mut self, out: &mut Vec<QueryResult>) {
        let safe = self.safe_ts();
        loop {
            let mut best: Option<(NodeId, Timestamp)> = None;
            for (id, queue) in &self.buffered {
                if let Some(front) = queue.front() {
                    if front.end_ts <= safe
                        && best.is_none_or(|(bid, ts)| {
                            front.end_ts < ts || (front.end_ts == ts && *id < bid)
                        })
                    {
                        best = Some((*id, front.end_ts));
                    }
                }
            }
            let Some((origin, _)) = best else { break };
            let partial = self
                .buffered
                .get_mut(&origin)
                .expect("known child")
                .pop_front()
                .expect("non-empty");
            self.process_slice(origin, partial, out);
        }
    }

    /// Processes one child partial in aligned order.
    fn process_slice(&mut self, origin: NodeId, partial: SealedSlice, out: &mut Vec<QueryResult>) {
        let trace = partial.trace;
        let before = out.len();
        if let (Some(rec), Some(id)) = (&mut self.recorder, trace) {
            rec.record(id, SpanKind::MergeStart);
        }
        let store = self.children.entry(origin).or_default();
        store.push(partial.id, partial.start_ts, partial.end_ts, partial.data);
        // Extract this child's contribution for every window it closed;
        // ends of removed queries are skipped.
        for end in &partial.ends {
            let Some(info) = self.queries.get(&end.query) else {
                continue;
            };
            let mut contribution = KeyedBundles::default();
            store.merge_range(
                SliceRange::Ids(end.first_slice, end.last_slice),
                info.selection,
                &mut contribution,
            );
            match info.window.kind {
                WindowKind::Tumbling { .. } | WindowKind::Sliding { .. } => {
                    let key = (end.query, end.start_ts, end.end_ts);
                    let entry = self
                        .fixed_pending
                        .entry(key)
                        .or_insert_with(|| (0, FxHashMap::default()));
                    entry.0 += 1;
                    merge_keyed(&mut entry.1, &contribution);
                    if entry.0 == self.expected_children {
                        let (_, merged) = self.fixed_pending.remove(&key).expect("checked");
                        finalize_sorted(
                            end.query,
                            &info.functions,
                            &merged,
                            end.start_ts,
                            end.end_ts,
                            out,
                        );
                    }
                }
                WindowKind::Session { .. } => {
                    let state = self.sessions.entry(end.query).or_default();
                    state.absorb(end.start_ts, end.end_ts, &contribution);
                    let clear = state.clear_until.entry(origin).or_insert(0);
                    *clear = (*clear).max(end.end_ts);
                }
                WindowKind::UserDefined { .. } => {
                    self.ud_queues
                        .entry(end.query)
                        .or_default()
                        .entry(origin)
                        .or_default()
                        .push_back(((end.start_ts, end.end_ts), contribution));
                }
            }
        }
        // Session gaps advance the originating child's clear frontier:
        // its next local session cannot start before the gap's end, so
        // pending global sessions ending by then become final once every
        // child is past them (the gap-covering condition of Section
        // 5.1.2, evaluated per pending session).
        for gap in &partial.session_gaps {
            let state = self.sessions.entry(gap.query).or_default();
            let clear = state.clear_until.entry(origin).or_insert(0);
            *clear = (*clear).max(gap.gap_end);
        }
        self.emit_sessions(0, out);
        // User-defined windows: merge one contribution per child once all
        // children reported one.
        let mut completed_ud: Vec<QueryId> = Vec::new();
        for (query, queues) in &self.ud_queues {
            if queues.len() == self.expected_children && queues.values().all(|q| !q.is_empty()) {
                completed_ud.push(*query);
            }
        }
        for query in completed_ud {
            let info = self.queries.get(&query).expect("known query").clone();
            let queues = self.ud_queues.get_mut(&query).expect("checked");
            let mut merged = FxHashMap::default();
            let mut span: Option<(Timestamp, Timestamp)> = None;
            for queue in queues.values_mut() {
                let ((s, e), contribution) = queue.pop_front().expect("checked");
                merge_keyed(&mut merged, &contribution);
                span = Some(match span {
                    None => (s, e),
                    Some((cs, ce)) => (cs.min(s), ce.max(e)),
                });
            }
            let (s, e) = span.expect("at least one child");
            finalize_sorted(query, &info.functions, &merged, s, e, out);
        }
        // GC this child's slices.
        if let Some(store) = self.children.get_mut(&origin) {
            store.gc_ids(partial.low_watermark);
        }
        if let (Some(rec), Some(id)) = (&mut self.recorder, trace) {
            rec.record(id, SpanKind::MergeDone);
        }
        record_assembly(&mut self.recorder, trace, &out[before..]);
    }

    /// Finalizes every pending global session that ends at or before the
    /// larger of each query's per-child clear frontier and `force_clear`
    /// (`Timestamp::MAX` at flush: the streams ended, nothing can extend
    /// a session any more). Emission is ordered by query and span start
    /// for determinism.
    fn emit_sessions(&mut self, force_clear: Timestamp, out: &mut Vec<QueryResult>) {
        let expected = self.expected_children;
        let mut ids: Vec<QueryId> = self.sessions.keys().copied().collect();
        ids.sort_unstable();
        for query in ids {
            let Some(info) = self.queries.get(&query) else {
                continue;
            };
            let state = self.sessions.get_mut(&query).expect("listed");
            let clear = state.clear(expected).max(force_clear);
            if clear == 0 {
                continue;
            }
            let (mut ready, rest): (Vec<_>, Vec<_>) = std::mem::take(&mut state.pending)
                .into_iter()
                .partition(|p| p.end <= clear);
            state.pending = rest;
            ready.sort_by_key(|p| p.start);
            for p in ready {
                finalize_sorted(query, &info.functions, &p.merged, p.start, p.end, out);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Raw event merging (root-processed groups, centralized baselines).
// ---------------------------------------------------------------------

/// Watermark-aligned k-way merge of raw event streams: events are released
/// in timestamp order once every child has advanced past them.
#[derive(Debug)]
pub struct EventMerger {
    children: FxHashMap<NodeId, ChildEvents>,
    expected_children: usize,
}

#[derive(Debug, Default)]
struct ChildEvents {
    queue: VecDeque<Event>,
    guarantee: Timestamp,
    flushed: bool,
}

impl EventMerger {
    /// Creates a merger over `expected_children` event streams.
    pub fn new(expected_children: usize) -> Self {
        assert!(expected_children >= 1);
        Self {
            children: FxHashMap::default(),
            expected_children,
        }
    }

    fn child(&mut self, origin: NodeId) -> &mut ChildEvents {
        self.children.entry(origin).or_default()
    }

    /// Buffers a batch from one child.
    pub fn on_events(&mut self, origin: NodeId, events: Vec<Event>) {
        let child = self.child(origin);
        if let Some(last) = events.last() {
            child.guarantee = child.guarantee.max(last.ts);
        }
        child.queue.extend(events);
    }

    /// Advances one child's time guarantee.
    pub fn on_watermark(&mut self, origin: NodeId, ts: Timestamp) {
        let child = self.child(origin);
        child.guarantee = child.guarantee.max(ts);
    }

    /// Marks one child's stream as finished.
    pub fn on_flush(&mut self, origin: NodeId) {
        self.child(origin).flushed = true;
    }

    /// The timestamp up to which the merged stream is complete.
    pub fn frontier(&self) -> Timestamp {
        if self.children.len() < self.expected_children {
            return 0;
        }
        self.children
            .values()
            .map(|c| {
                if c.flushed {
                    Timestamp::MAX
                } else {
                    c.guarantee
                }
            })
            .min()
            .unwrap_or(0)
    }

    /// Releases all events ready under the current frontier, in timestamp
    /// order. Ties break towards the lowest child id, so the merged order
    /// is deterministic (count-measured windows depend on it).
    pub fn drain_ready(&mut self, out: &mut Vec<Event>) {
        let frontier = self.frontier();
        let mut ids: Vec<NodeId> = self.children.keys().copied().collect();
        ids.sort_unstable();
        loop {
            let mut best: Option<(NodeId, Timestamp)> = None;
            for id in &ids {
                let child = &self.children[id];
                if let Some(ev) = child.queue.front() {
                    if ev.ts <= frontier && best.is_none_or(|(_, ts)| ev.ts < ts) {
                        best = Some((*id, ev.ts));
                    }
                }
            }
            match best {
                Some((id, _)) => {
                    let ev = self
                        .children
                        .get_mut(&id)
                        .expect("known child")
                        .queue
                        .pop_front()
                        .expect("non-empty");
                    out.push(ev);
                }
                None => break,
            }
        }
    }

    /// Whether every child flushed and all buffers are drained.
    pub fn finished(&self) -> bool {
        self.children.len() == self.expected_children
            && self
                .children
                .values()
                .all(|c| c.flushed && c.queue.is_empty())
    }
}

// ---------------------------------------------------------------------
// Disco: per-window partials.
// ---------------------------------------------------------------------

/// Turns a local node's sealed slices into Disco-style per-*window*
/// partials: every window end triggers a merged (but unfinalized) partial
/// that is shipped individually — overlapping windows ship their shared
/// slices repeatedly, which is the redundancy Desis' per-slice protocol
/// removes.
#[derive(Debug)]
pub struct PartialAssembler {
    queries: FxHashMap<QueryId, QueryInfo>,
    store: SliceStore,
}

impl PartialAssembler {
    /// Creates a partial assembler for `group`.
    pub fn new(group: &QueryGroup) -> Self {
        Self {
            queries: query_infos(group).collect(),
            store: SliceStore::default(),
        }
    }

    /// Ingests a sealed slice, producing one partial per terminated
    /// window.
    pub fn on_slice(&mut self, slice: &SealedSlice) -> Vec<WindowPartial> {
        self.store
            .push(slice.id, slice.start_ts, slice.end_ts, slice.data.clone());
        let mut partials = Vec::with_capacity(slice.ends.len());
        for end in &slice.ends {
            let Some(info) = self.queries.get(&end.query) else {
                continue;
            };
            let mut merged = KeyedBundles::default();
            self.store.merge_range(
                SliceRange::Ids(end.first_slice, end.last_slice),
                info.selection,
                &mut merged,
            );
            partials.push(sorted_partial(end.query, end.start_ts, end.end_ts, merged));
        }
        self.store.gc_ids(slice.low_watermark);
        partials
    }
}

/// A window partial in wire form: keyed partials in ascending key order.
fn sorted_partial(
    query: QueryId,
    start_ts: Timestamp,
    end_ts: Timestamp,
    merged: KeyedBundles,
) -> WindowPartial {
    let mut data: Vec<_> = merged.into_iter().collect();
    data.sort_by_key(|(k, _)| *k);
    WindowPartial {
        query,
        start_ts,
        end_ts,
        data,
    }
}

/// Merges per-window partials across children; finalizes at the root.
#[derive(Debug)]
pub struct WindowPartialMerger {
    queries: FxHashMap<QueryId, QueryInfo>,
    expected_coverage: u32,
    pending: FxHashMap<(QueryId, Timestamp, Timestamp), (u32, KeyedBundles)>,
}

impl WindowPartialMerger {
    /// Creates a merger covering `expected_coverage` local streams.
    pub fn new(group: &QueryGroup, expected_coverage: u32) -> Self {
        assert!(expected_coverage >= 1);
        Self {
            queries: query_infos(group).collect(),
            expected_coverage,
            pending: FxHashMap::default(),
        }
    }

    /// Windows still waiting for contributions from some covered stream.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Folds one child partial in; returns the merged partial when all
    /// streams contributed.
    pub fn on_partial(&mut self, partial: WindowPartial, coverage: u32) -> Option<WindowPartial> {
        let key = (partial.query, partial.start_ts, partial.end_ts);
        let entry = self
            .pending
            .entry(key)
            .or_insert_with(|| (0, FxHashMap::default()));
        entry.0 = entry.0.saturating_add(coverage);
        for (k, bundle) in &partial.data {
            merge_one(&mut entry.1, *k, bundle);
        }
        if entry.0 < self.expected_coverage {
            return None;
        }
        let (_, merged) = self.pending.remove(&key)?;
        Some(sorted_partial(key.0, key.1, key.2, merged))
    }

    /// Finalizes a fully merged partial into per-key results.
    pub fn finalize(&self, partial: &WindowPartial, out: &mut Vec<QueryResult>) {
        let Some(info) = self.queries.get(&partial.query) else {
            debug_assert!(false, "unknown query {}", partial.query);
            return;
        };
        // Wire partials are key-sorted already.
        out.extend(partial.data.iter().map(|(key, bundle)| {
            finalize_key(
                partial.query,
                &info.functions,
                *key,
                bundle,
                partial.start_ts,
                partial.end_ts,
            )
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desis_core::engine::{GroupSlicer, QueryAnalyzer};
    use desis_core::prelude::*;

    fn group(queries: Vec<Query>) -> QueryGroup {
        let mut groups = QueryAnalyzer::default().analyze(queries).unwrap();
        assert_eq!(groups.len(), 1);
        groups.remove(0)
    }

    #[test]
    fn unfixed_merger_joins_sessions_across_children() {
        let queries = vec![Query::new(
            1,
            WindowSpec::session(100).unwrap(),
            AggFunction::Sum,
        )];
        let g = group(queries);
        let mut merger = UnfixedRootMerger::new(&g, 2);
        let mut slicers = [GroupSlicer::new(g.clone()), GroupSlicer::new(g.clone())];
        // Child 0: events at 0, 50; child 1: events at 30, 80. Both go
        // quiet afterwards -> gaps [50,150] and [80,180] overlap -> one
        // global session summing everything.
        let streams = [
            vec![Event::new(0, 0, 1.0), Event::new(50, 0, 2.0)],
            vec![Event::new(30, 0, 4.0), Event::new(80, 0, 8.0)],
        ];
        let mut results = Vec::new();
        for (i, (slicer, events)) in slicers.iter_mut().zip(&streams).enumerate() {
            let mut out = Vec::new();
            for ev in events {
                slicer.on_event(ev, &mut out);
            }
            slicer.on_watermark(1_000, &mut out);
            for slice in out.drain(..) {
                merger.on_slice(i as NodeId, slice, &mut results);
            }
        }
        merger.flush(&mut results);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].values, vec![Some(15.0)]);
        assert_eq!(results[0].window_start, 0);
        assert_eq!(results[0].window_end, 180);
    }

    #[test]
    fn unfixed_merger_keeps_separate_global_sessions_apart() {
        let queries = vec![Query::new(
            1,
            WindowSpec::session(100).unwrap(),
            AggFunction::Count,
        )];
        let g = group(queries);
        let mut merger = UnfixedRootMerger::new(&g, 2);
        let mut slicers = [GroupSlicer::new(g.clone()), GroupSlicer::new(g.clone())];
        // Burst 1 around t=0, burst 2 around t=1000 on both children.
        let streams = [
            vec![Event::new(0, 0, 1.0), Event::new(1_000, 0, 1.0)],
            vec![Event::new(20, 0, 1.0), Event::new(1_020, 0, 1.0)],
        ];
        let mut results = Vec::new();
        // Deliver each child's whole stream back to back — worst-case
        // skew. The merger's reorder buffer re-aligns event time before
        // applying the latest-gap protocol (Section 5.1.2).
        for (i, (slicer, events)) in slicers.iter_mut().zip(&streams).enumerate() {
            let mut out = Vec::new();
            for ev in events {
                slicer.on_event(ev, &mut out);
            }
            slicer.on_watermark(5_000, &mut out);
            for slice in out.drain(..) {
                merger.on_slice(i as NodeId, slice, &mut results);
            }
        }
        merger.flush(&mut results);
        assert_eq!(results.len(), 2);
        results.sort_by_key(|r| r.window_start);
        assert_eq!(results[0].values, vec![Some(2.0)]);
        assert_eq!(results[1].values, vec![Some(2.0)]);
    }

    #[test]
    fn unfixed_merger_merges_user_defined_windows() {
        let queries = vec![Query::new(1, WindowSpec::user_defined(0), AggFunction::Max)];
        let g = group(queries);
        let mut merger = UnfixedRootMerger::new(&g, 2);
        let start = Marker {
            channel: 0,
            kind: MarkerKind::Start,
        };
        let end = Marker {
            channel: 0,
            kind: MarkerKind::End,
        };
        let streams = [
            vec![
                Event::with_marker(0, 0, 1.0, start),
                Event::new(10, 0, 5.0),
                Event::with_marker(20, 0, 2.0, end),
            ],
            vec![
                Event::with_marker(2, 0, 3.0, start),
                Event::with_marker(22, 0, 9.0, end),
            ],
        ];
        let mut results = Vec::new();
        for (i, events) in streams.iter().enumerate() {
            let mut slicer = GroupSlicer::new(g.clone());
            let mut out = Vec::new();
            for ev in events {
                slicer.on_event(ev, &mut out);
            }
            slicer.flush(&mut out);
            for slice in out.drain(..) {
                merger.on_slice(i as NodeId, slice, &mut results);
            }
        }
        merger.flush(&mut results);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].values, vec![Some(9.0)]);
        assert_eq!(results[0].window_start, 0);
        assert_eq!(results[0].window_end, 22);
    }

    #[test]
    fn event_merger_orders_across_children() {
        let mut m = EventMerger::new(2);
        m.on_events(0, vec![Event::new(10, 0, 1.0), Event::new(30, 0, 3.0)]);
        m.on_events(1, vec![Event::new(20, 1, 2.0)]);
        let mut out = Vec::new();
        m.drain_ready(&mut out);
        // Frontier = min(30, 20) = 20: events at 10 and 20 are safe.
        assert_eq!(out.iter().map(|e| e.ts).collect::<Vec<_>>(), vec![10, 20]);
        m.on_watermark(1, 100);
        m.drain_ready(&mut out);
        assert_eq!(out.last().unwrap().ts, 30);
        assert!(!m.finished());
        m.on_flush(0);
        m.on_flush(1);
        assert!(m.finished());
    }

    #[test]
    fn event_merger_waits_for_all_children() {
        let mut m = EventMerger::new(3);
        m.on_events(0, vec![Event::new(10, 0, 1.0)]);
        m.on_events(1, vec![Event::new(5, 0, 1.0)]);
        let mut out = Vec::new();
        m.drain_ready(&mut out);
        // Child 2 has not reported: nothing may be released.
        assert!(out.is_empty());
        m.on_watermark(2, 50);
        m.drain_ready(&mut out);
        // Child 1 only guarantees ts 5: the event at 10 must wait.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].ts, 5);
        m.on_watermark(1, 50);
        m.drain_ready(&mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].ts, 10);
    }

    #[test]
    fn disco_partials_and_merge_produce_correct_results() {
        let queries = vec![Query::new(
            7,
            WindowSpec::tumbling_time(100).unwrap(),
            AggFunction::Average,
        )];
        let g = group(queries);
        let mut merger = WindowPartialMerger::new(&g, 2);
        let mut results = Vec::new();
        for child in 0..2 {
            let mut slicer = GroupSlicer::new(g.clone());
            let mut assembler = PartialAssembler::new(&g);
            let mut out = Vec::new();
            for i in 0..10u64 {
                slicer.on_event(&Event::new(i * 10, 0, (child + 1) as f64), &mut out);
            }
            slicer.on_watermark(100, &mut out);
            for slice in out.drain(..) {
                for partial in assembler.on_slice(&slice) {
                    if let Some(done) = merger.on_partial(partial, 1) {
                        merger.finalize(&done, &mut results);
                    }
                }
            }
        }
        assert_eq!(results.len(), 1);
        // Child 0 sends 10 values of 1.0, child 1 sends 10 of 2.0.
        assert_eq!(results[0].values, vec![Some(1.5)]);
    }

    #[test]
    fn disco_overlapping_windows_ship_redundant_partials() {
        // Concurrent overlapping windows: Disco ships one partial per
        // window while Desis ships each slice once (Figure 11d).
        let queries = vec![
            Query::new(
                1,
                WindowSpec::sliding_time(400, 100).unwrap(),
                AggFunction::Sum,
            ),
            Query::new(
                2,
                WindowSpec::sliding_time(200, 100).unwrap(),
                AggFunction::Sum,
            ),
            Query::new(3, WindowSpec::tumbling_time(100).unwrap(), AggFunction::Sum),
        ];
        let g = group(queries);
        let mut slicer = GroupSlicer::new(g.clone());
        let mut assembler = PartialAssembler::new(&g);
        let mut out = Vec::new();
        let mut n_partials = 0usize;
        let mut n_slices = 0usize;
        for i in 0..200u64 {
            slicer.on_event(&Event::new(i * 10, 0, 1.0), &mut out);
            for slice in out.drain(..) {
                n_slices += 1;
                n_partials += assembler.on_slice(&slice).len();
            }
        }
        assert!(n_partials > n_slices, "{n_partials} vs {n_slices}");
    }
}
