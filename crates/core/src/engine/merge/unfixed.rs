//! The one merger of *unfixed* (session / user-defined) window groups
//! (paper Section 5.1.2), generic over the source id: the sharded
//! collector runs it over shard indices, the root over the `NodeId`s of
//! its local streams.
//!
//! Every source slices only its own substream, so a global session
//! arrives as per-source *fragments*: each source closes a fragment when
//! its own gap elapses, and fragments of one global session strictly
//! overlap (the events that joined them lie within the gap of both;
//! spans that merely touch are distinct sessions). [`UnfixedMerger`]
//! span-overlap-merges closed fragments into pending global sessions and
//! holds each one until every live source's *clear frontier* for the
//! query has passed the session end. A source's frontier is the time
//! before which it can open no further fragment: raised by its explicit
//! reports ([`UnfixedMerger::on_clears`] — an open fragment keeps it at
//! the fragment's own start) and by the ends and gaps of the sessions it
//! ships; a source not heard from holds it at 0. Frontiers are monotone
//! and a source's next fragment starts at or after its frontier, so a
//! pending `[s, e)` with every frontier at or past `e` can be neither
//! overlapped nor bridged by anything still in flight — whatever the
//! interleaving of sources, given per-source FIFO delivery.
//!
//! User-defined windows close at markers: the k-th partial of every
//! source belongs to the k-th window, which completes once all live
//! sources queued theirs and merges them in ascending source id. Fixed
//! windows of a mixed group merge by `(end, start, query)`, each source
//! counted once, and release on full coverage or once
//! [`UnfixedMerger::advance`] passed their end (a source idle over the
//! span sealed nothing for it).
//!
//! Every completed window leaves as a *self-contained* sealed slice —
//! the merged partials of the query's selection, one `WindowEnd`
//! referencing the slice itself, and for sessions the closing
//! `SessionGap` — so the output feeds [`crate::engine::Assembler`]
//! unchanged and, shipped upstream, is one more source of the next
//! merger. Contributions fold in arrival order.
//!
//! Retained state: per source, the slices above its own low watermark;
//! per query, the sessions no frontier has cleared yet and the partials
//! of incomplete user-defined windows; the fixed windows no watermark
//! has passed.

use std::collections::{BTreeMap, VecDeque};

use rustc_hash::FxHashMap;

use super::{merge_keyed, query_infos, KeyedBundles, QueryInfo, SliceRange, SliceStore};
use crate::engine::group::QueryGroup;
use crate::engine::slice::{SealedSlice, SessionGap, SliceData, SliceId, WindowEnd};
use crate::obs::trace::{SpanKind, TraceId, TraceRecorder};
use crate::query::QueryId;
use crate::time::{DurationMs, Timestamp};

/// A merged-but-unreleased global session.
#[derive(Debug)]
struct PendingSession {
    start: Timestamp,
    end: Timestamp,
    data: KeyedBundles,
    /// The merged window's one representative provenance chain: the
    /// first traced contribution wins.
    trace: Option<TraceId>,
}

/// Per-session-query merge state.
#[derive(Debug)]
struct SessionSlot<S> {
    query: QueryId,
    query_idx: usize,
    gap: DurationMs,
    pending: Vec<PendingSession>,
    /// Clear frontier per live source heard from.
    clears: BTreeMap<S, Timestamp>,
}

/// One queued user-defined window partial: `(start, end, data, trace)`.
type UdPartial = (Timestamp, Timestamp, KeyedBundles, Option<TraceId>);

/// Per-user-defined-query merge state.
#[derive(Debug)]
struct UdSlot<S> {
    query: QueryId,
    /// FIFO of window partials per live source heard from — the k-th
    /// entry of every queue is the k-th window of the query.
    queues: BTreeMap<S, VecDeque<UdPartial>>,
}

/// A fixed window accumulating source contributions.
#[derive(Debug)]
struct FixedPending<S> {
    data: KeyedBundles,
    /// Live sources counted so far, each once.
    seen: Vec<S>,
    trace: Option<TraceId>,
}

#[derive(Debug, Default)]
struct Source {
    /// Retained slices (ids are source-local), gc'd by the source's own
    /// low watermark.
    store: SliceStore,
    dead: bool,
}

/// Adopts `trace` as a window's representative chain unless it has one.
fn adopt(recorder: &mut Option<TraceRecorder>, held: &mut Option<TraceId>, trace: Option<TraceId>) {
    if let (None, Some(id)) = (*held, trace) {
        *held = Some(id);
        if let Some(rec) = recorder {
            rec.record(id, SpanKind::MergeStart);
        }
    }
}

impl<S: Copy + Ord> SessionSlot<S> {
    /// Span-overlap-merges a closed fragment into the pending sessions
    /// (strict overlap, transitively bridging).
    fn absorb(
        &mut self,
        start: Timestamp,
        end: Timestamp,
        data: KeyedBundles,
        trace: Option<TraceId>,
        recorder: &mut Option<TraceRecorder>,
    ) {
        let mut merged = PendingSession {
            start,
            end,
            data,
            trace: None,
        };
        let mut keep = Vec::with_capacity(self.pending.len() + 1);
        for p in self.pending.drain(..) {
            if p.start < merged.end && merged.start < p.end {
                merged.start = merged.start.min(p.start);
                merged.end = merged.end.max(p.end);
                merge_keyed(&mut merged.data, &p.data);
                merged.trace = merged.trace.or(p.trace);
            } else {
                keep.push(p);
            }
        }
        // Absorbed sessions keep their earlier-adopted chain; only a
        // fragment founding an untraced session starts one.
        adopt(recorder, &mut merged.trace, trace);
        keep.push(merged);
        self.pending = keep;
    }

    fn raise_clear(&mut self, source: S, ts: Timestamp) {
        let clear = self.clears.entry(source).or_insert(0);
        *clear = (*clear).max(ts);
    }
}

/// Merges the per-source slice streams of one unfixed query-group into a
/// stream of self-contained per-window slices.
#[derive(Debug)]
pub struct UnfixedMerger<S> {
    /// Sources expected to report; more may show up.
    expected: usize,
    selections: usize,
    sources: BTreeMap<S, Source>,
    queries: FxHashMap<QueryId, QueryInfo>,
    sessions: Vec<SessionSlot<S>>,
    uds: Vec<UdSlot<S>>,
    /// Fixed windows keyed `(end, start, query)` — released in this
    /// order.
    fixed: BTreeMap<(Timestamp, Timestamp, QueryId), FixedPending<S>>,
    /// Key of the last fixed window released; a contribution at or below
    /// it was delivered before.
    fixed_released: Option<(Timestamp, Timestamp, QueryId)>,
    forced_up_to: Timestamp,
    next_id: SliceId,
    ready: VecDeque<SealedSlice>,
    recorder: Option<TraceRecorder>,
}

impl<S: Copy + Ord> UnfixedMerger<S> {
    /// Creates a merger for `group` over `expected` sources (clamped to
    /// at least 1).
    pub fn new(group: &QueryGroup, expected: usize) -> Self {
        let mut sessions = Vec::new();
        let mut uds = Vec::new();
        for (query_idx, cq) in group.queries.iter().enumerate() {
            let query = cq.query.id;
            if let Some(gap) = cq.query.window.session_gap() {
                sessions.push(SessionSlot {
                    query,
                    query_idx,
                    gap,
                    pending: Vec::new(),
                    clears: BTreeMap::new(),
                });
            } else if cq.query.window.marker_channel().is_some() {
                uds.push(UdSlot {
                    query,
                    queues: BTreeMap::new(),
                });
            }
        }
        Self {
            expected: expected.max(1),
            selections: group.selections.len(),
            sources: BTreeMap::new(),
            queries: query_infos(group).collect(),
            sessions,
            uds,
            fixed: BTreeMap::new(),
            fixed_released: None,
            forced_up_to: 0,
            next_id: 0,
            ready: VecDeque::new(),
            recorder: None,
        }
    }

    /// Enables causal tracing: `MergeStart` when a traced partial is
    /// adopted as a window's representative chain, `MergeDone` when the
    /// merged window is emitted; the emitted slice carries the trace on.
    pub fn set_recorder(&mut self, recorder: TraceRecorder) {
        self.recorder = Some(recorder);
    }

    /// Sources that gate release: the expected ones (or all heard from,
    /// if more) minus the dead.
    fn live(&self) -> usize {
        let dead = self.sources.values().filter(|s| s.dead).count();
        self.expected.max(self.sources.len()) - dead
    }

    /// Folds one source's sealed slice in: stores its data, absorbs every
    /// window end it carries, and raises the source's clear frontiers by
    /// the session ends and gaps it reports.
    pub fn on_slice(&mut self, source: S, slice: SealedSlice) {
        let src = self.sources.entry(source).or_default();
        if src.dead {
            return;
        }
        src.store
            .push(slice.id, slice.start_ts, slice.end_ts, slice.data);
        for end in &slice.ends {
            // Ends of removed queries may still be in flight.
            let Some(info) = self.queries.get(&end.query) else {
                continue;
            };
            let range = SliceRange::Ids(end.first_slice, end.last_slice);
            // Sessions and user-defined windows keep their partial, so
            // they merge into a map of their own.
            let owned = |store: &SliceStore| {
                let mut data = KeyedBundles::default();
                store.merge_range(range, info.selection, &mut data);
                data
            };
            let (start, stop) = (end.start_ts, end.end_ts);
            if let Some(slot) = self.sessions.iter_mut().find(|s| s.query == end.query) {
                let data = owned(&src.store);
                slot.absorb(start, stop, data, slice.trace, &mut self.recorder);
                slot.raise_clear(source, stop);
            } else if let Some(slot) = self.uds.iter_mut().find(|u| u.query == end.query) {
                let queue = slot.queues.entry(source).or_default();
                queue.push_back((start, stop, owned(&src.store), slice.trace));
            } else {
                // A contribution delivered twice counts once, whether its
                // window is still pending or already left.
                let key = (stop, start, end.query);
                if self.fixed_released.is_some_and(|done| key <= done) {
                    continue;
                }
                let entry = self.fixed.entry(key).or_insert_with(|| FixedPending {
                    data: KeyedBundles::default(),
                    seen: Vec::new(),
                    trace: None,
                });
                if !entry.seen.contains(&source) {
                    entry.seen.push(source);
                    merge_keyed(&mut entry.data, src.store.merged_range(range, info));
                    adopt(&mut self.recorder, &mut entry.trace, slice.trace);
                }
            }
        }
        for gap in &slice.session_gaps {
            if let Some(slot) = self.sessions.iter_mut().find(|s| s.query == gap.query) {
                slot.raise_clear(source, gap.gap_end);
            }
        }
        src.store.gc_ids(slice.low_watermark);
        self.release_sessions(0);
        self.release_uds();
        self.release_fixed();
    }

    /// Applies one source's explicit clear-frontier report, keyed by
    /// group query index ([`crate::engine::GroupSlicer::unfixed_clears`]).
    /// Session queries absent from the report have no slot on that source
    /// anymore — removed or fully drained — so nothing further can arrive
    /// from it.
    pub fn on_clears(&mut self, source: S, clears: &[(usize, Timestamp)]) {
        if self.sources.entry(source).or_default().dead {
            return;
        }
        for slot in &mut self.sessions {
            let reported = clears
                .iter()
                .find(|(idx, _)| *idx == slot.query_idx)
                .map_or(Timestamp::MAX, |(_, ts)| *ts);
            slot.raise_clear(source, reported);
        }
        self.release_sessions(0);
    }

    /// Every live source passed `wm`: fixed windows ending at or before
    /// it release even without full coverage.
    pub fn advance(&mut self, wm: Timestamp) {
        if wm > self.forced_up_to {
            self.forced_up_to = wm;
            self.release_fixed();
        }
    }

    /// End of all streams: every pending session is final and every
    /// fixed window releases. Incomplete user-defined windows stay
    /// unreleased.
    pub fn flush(&mut self) {
        self.release_sessions(Timestamp::MAX);
        self.advance(Timestamp::MAX);
    }

    /// Degrades a source: its retained partials are dropped and it no
    /// longer gates coverage or clear frontiers (results may be partial).
    pub fn mark_dead(&mut self, source: S) {
        let src = self.sources.entry(source).or_default();
        if src.dead {
            return;
        }
        *src = Source {
            store: SliceStore::default(),
            dead: true,
        };
        for slot in &mut self.sessions {
            slot.clears.remove(&source);
        }
        for slot in &mut self.uds {
            slot.queues.remove(&source);
        }
        for entry in self.fixed.values_mut() {
            entry.seen.retain(|s| *s != source);
        }
        self.release_sessions(0);
        self.release_uds();
        self.release_fixed();
    }

    /// Whether `id` is a member query whose windows merge here.
    pub fn merges_query(&self, id: QueryId) -> bool {
        self.queries.contains_key(&id)
    }

    /// Purges every trace of a removed query.
    pub fn remove_query(&mut self, id: QueryId) {
        self.sessions.retain(|s| s.query != id);
        self.uds.retain(|u| u.query != id);
        self.fixed.retain(|(_, _, q), _| *q != id);
        if let Some(removed) = self.queries.remove(&id) {
            for source in self.sources.values_mut() {
                source.store.query_removed(&removed);
            }
        }
    }

    /// Releases every pending session ending at or before the larger of
    /// its query's merged clear frontier and `floor`.
    fn release_sessions(&mut self, floor: Timestamp) {
        let live = self.live();
        for pos in 0..self.sessions.len() {
            let slot = &mut self.sessions[pos];
            let clear = if slot.clears.len() < live {
                0
            } else {
                let merged = slot.clears.values().copied().min();
                merged.unwrap_or(Timestamp::MAX)
            };
            let clear = clear.max(floor);
            let mut due: Vec<_> = slot.pending.extract_if(.., |p| p.end <= clear).collect();
            due.sort_by_key(|p| (p.end, p.start));
            let (query, gap) = (slot.query, slot.gap);
            for p in due {
                let closing = SessionGap {
                    query,
                    gap_start: p.end.saturating_sub(gap),
                    gap_end: p.end,
                };
                self.emit(query, (p.start, p.end), p.data, Some(closing), p.trace);
            }
        }
    }

    /// Releases every user-defined window all live sources queued a
    /// partial for.
    fn release_uds(&mut self) {
        let live = self.live();
        for pos in 0..self.uds.len() {
            loop {
                let slot = &mut self.uds[pos];
                let complete = live > 0
                    && slot.queues.len() >= live
                    && slot.queues.values().all(|q| !q.is_empty());
                if !complete {
                    break;
                }
                let mut span: Option<(Timestamp, Timestamp)> = None;
                let mut data = KeyedBundles::default();
                let mut trace = None;
                for (s, e, partial, t) in slot.queues.values_mut().filter_map(VecDeque::pop_front) {
                    merge_keyed(&mut data, &partial);
                    trace = trace.or(t);
                    span = Some(span.map_or((s, e), |(ms, me)| (ms.min(s), me.max(e))));
                }
                let Some(span) = span else { break };
                let query = slot.query;
                // The k-th window completes only at release, so its merge
                // span collapses to this instant.
                if let (Some(rec), Some(id)) = (&mut self.recorder, trace) {
                    rec.record(id, SpanKind::MergeStart);
                }
                self.emit(query, span, data, None, trace);
            }
        }
    }

    fn release_fixed(&mut self) {
        let live = self.live();
        while let Some(first) = self.fixed.first_entry() {
            let (end, start, query) = *first.key();
            if first.get().seen.len() < live && end > self.forced_up_to {
                break;
            }
            let done = first.remove();
            self.fixed_released = Some((end, start, query));
            self.emit(query, (start, end), done.data, None, done.trace);
        }
    }

    /// Emits one self-contained slice: the merged window partials in the
    /// query's selection plus a single `WindowEnd` referencing the slice
    /// itself, gc-able immediately (`low_watermark = id + 1`).
    fn emit(
        &mut self,
        query: QueryId,
        (start_ts, end_ts): (Timestamp, Timestamp),
        merged: KeyedBundles,
        gap: Option<SessionGap>,
        trace: Option<TraceId>,
    ) {
        if let (Some(rec), Some(id)) = (&mut self.recorder, trace) {
            rec.record(id, SpanKind::MergeDone);
        }
        let mut data = SliceData::new(self.selections);
        let selection = self.queries.get(&query).map(|q| q.selection);
        if let Some(slot) = selection.and_then(|s| data.per_selection.get_mut(s)) {
            *slot = merged;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.ready.push_back(SealedSlice {
            id,
            start_ts,
            end_ts,
            data,
            ends: vec![WindowEnd {
                query,
                first_slice: id,
                last_slice: id,
                start_ts,
                end_ts,
            }],
            session_gaps: gap.into_iter().collect(),
            low_watermark: id + 1,
            low_watermark_ts: start_ts,
            trace,
        });
    }

    /// Takes the windows completed so far.
    pub fn take_ready(&mut self) -> impl Iterator<Item = SealedSlice> + '_ {
        self.ready.drain(..)
    }

    /// Drains completed windows, tagged with their group index.
    pub fn drain_ready(&mut self, group: usize, out: &mut Vec<(usize, SealedSlice)>) {
        out.extend(self.take_ready().map(|s| (group, s)));
    }

    /// Windows held back (sessions + fixed windows + queued user-defined
    /// partials) — the merge-stall depth.
    pub fn pending_len(&self) -> usize {
        self.pending_sessions() + self.fixed.len() + self.queued_ud_slices()
    }

    /// Merged-but-unreleased global sessions held for clear frontiers.
    pub fn pending_sessions(&self) -> usize {
        self.sessions.iter().map(|s| s.pending.len()).sum()
    }

    /// Queued user-defined window partials awaiting full coverage.
    pub fn queued_ud_slices(&self) -> usize {
        self.uds
            .iter()
            .flat_map(|u| u.queues.values())
            .map(VecDeque::len)
            .sum()
    }

    /// Source slices retained for windows their source still has open.
    pub fn retained_slices(&self) -> usize {
        self.sources.values().map(|s| s.store.len()).sum()
    }

    /// Bundles held by the sources' suffix caches
    /// ([`SliceStore::cached_bundles`]).
    pub fn cached_bundles(&self) -> usize {
        self.sources
            .values()
            .map(|s| s.store.cached_bundles())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{constant_size_functions, for_cases, group, permutations, FUNCTIONS};
    use super::*;
    use crate::aggregate::AggFunction;
    use crate::engine::{Assembler, GroupSlicer};
    use crate::event::{Event, Marker, MarkerKind};
    use crate::query::{sort_results, Query, QueryResult};
    use crate::window::WindowSpec;
    use rand::rngs::SmallRng;
    use rand::Rng;

    const GAP: u64 = 50;
    const TUMBLE: u64 = 100;
    /// Events between two watermark barriers of the union stream.
    const EPOCH: usize = 40;

    /// Session + marker-delimited + fixed windows in one group. With
    /// every function on each and a tumbling window, both sort operators
    /// merge and fixed windows are scanned; with the constant-size
    /// functions and a sliding window, each source's store answers the
    /// fixed windows from its suffix cache.
    fn mixed_group(overlapping: bool) -> QueryGroup {
        let (functions, fixed) = if overlapping {
            let sliding = WindowSpec::sliding_time(16 * TUMBLE, TUMBLE);
            (constant_size_functions(), sliding)
        } else {
            (FUNCTIONS.to_vec(), WindowSpec::tumbling_time(TUMBLE))
        };
        group(vec![
            Query::with_functions(1, WindowSpec::session(GAP).unwrap(), functions.clone()),
            Query::with_functions(2, WindowSpec::user_defined(0), functions.clone()),
            Query::with_functions(3, fixed.unwrap(), functions),
        ])
    }

    /// A strictly ascending stream whose steps sit on both sides of the
    /// session gap — well inside (per-source fragments overlap), exactly
    /// on it (spans touch: distinct sessions) and beyond — with complete
    /// marker pairs. Values are powers of two, so sums, products and
    /// squares stay exact in `f64` under any merge order.
    fn arb_stream(rng: &mut SmallRng) -> Vec<Event> {
        let mut ts = rng.gen_range(0u64..300);
        let mut open = false;
        let mut events = Vec::new();
        let n = rng.gen_range(80usize..240);
        for i in 0..n {
            ts += match rng.gen_range(0u32..20) {
                0 => GAP,
                1 => GAP + rng.gen_range(1u64..200),
                2 => GAP - 1,
                _ => rng.gen_range(1u64..GAP / 2),
            };
            let key = rng.gen_range(0u32..8);
            let value = [0.5, 1.0, 2.0, 4.0][rng.gen_range(0usize..4)];
            // The last event closes a window still open and opens none.
            let toggle = if i + 1 == n {
                open
            } else {
                rng.gen_range(0u32..12) == 0
            };
            events.push(if toggle {
                let kind = if open {
                    MarkerKind::End
                } else {
                    MarkerKind::Start
                };
                open = !open;
                Event::with_marker(ts, key, value, Marker { channel: 0, kind })
            } else {
                Event::new(ts, key, value)
            });
        }
        events
    }

    /// One source's output between two barriers: the slices it sealed and
    /// the clear frontiers it would report at the barrier.
    struct Epoch {
        slices: Vec<SealedSlice>,
        clears: Vec<(usize, Timestamp)>,
        watermark: Timestamp,
    }

    /// Slices `events` the way `sources` key-partitioned slicers do
    /// (markers broadcast), with a watermark barrier every [`EPOCH`]
    /// events and a final one that closes every window.
    fn run_sources(g: &QueryGroup, events: &[Event], sources: usize) -> Vec<Vec<Epoch>> {
        let last = events.last().map_or(0, |ev| ev.ts);
        let end_of_time = (last + 2 * GAP).div_ceil(TUMBLE) * TUMBLE;
        (0..sources)
            .map(|source| {
                let mut slicer = GroupSlicer::new(g.clone());
                let mut epochs = Vec::new();
                let chunks = events.len().div_ceil(EPOCH);
                for (no, chunk) in events.chunks(EPOCH).enumerate() {
                    let mut slices = Vec::new();
                    for ev in chunk {
                        if ev.key as usize % sources == source {
                            slicer.on_event(ev, &mut slices);
                        } else {
                            slicer.on_marker(ev, &mut slices);
                        }
                    }
                    let done = no + 1 == chunks;
                    let watermark = if done {
                        end_of_time
                    } else {
                        chunk.last().map_or(0, |ev| ev.ts)
                    };
                    slicer.on_watermark(watermark, &mut slices);
                    let floor = if done { Timestamp::MAX } else { watermark };
                    epochs.push(Epoch {
                        slices,
                        clears: slicer.unfixed_clears(floor),
                        watermark,
                    });
                }
                epochs
            })
            .collect()
    }

    fn finalized(
        g: &QueryGroup,
        windows: impl IntoIterator<Item = SealedSlice>,
    ) -> Vec<QueryResult> {
        let mut assembler = Assembler::new(g);
        let mut results = Vec::new();
        for window in windows {
            assembler.on_slice(window, &mut results);
        }
        sort_results(&mut results);
        results
    }

    /// The slice again, reduced to the fixed-window ends it announces.
    fn fixed_ends_again(slice: &SealedSlice, selections: usize) -> Option<SealedSlice> {
        let ends: Vec<WindowEnd> = slice
            .ends
            .iter()
            .filter(|e| e.query == 3)
            .cloned()
            .collect();
        (!ends.is_empty()).then(|| SealedSlice {
            data: SliceData::new(selections),
            ends,
            session_gaps: Vec::new(),
            ..slice.clone()
        })
    }

    /// Nothing pending and no slice retained — except, in the group
    /// with a sliding window, the slices each source's last low
    /// watermark still vouches for (windows open at end of stream;
    /// [`deliver_derived`] stores every such slice twice).
    fn assert_drained<S: Copy + Ord>(
        merger: &UnfixedMerger<S>,
        runs: &[Vec<Epoch>],
        context: &str,
    ) {
        assert_eq!(merger.pending_len(), 0, "{context}: windows left pending");
        let retained = merger.retained_slices() as u64;
        if !merger.queries.values().any(QueryInfo::cached) {
            assert_eq!(retained, 0, "{context}: slices retained");
            return;
        }
        let open: u64 = runs
            .iter()
            .filter_map(|epochs| epochs.iter().flat_map(|e| &e.slices).last())
            .map(|last| last.id + 1 - last.low_watermark)
            .sum();
        assert!(
            retained <= 2 * open,
            "{context}: {retained} slices retained"
        );
    }

    /// Barrier by barrier, sources in `order`, clears as explicit
    /// reports: everything is released without a flush.
    fn deliver_reported<S: Copy + Ord>(
        g: &QueryGroup,
        runs: &[Vec<Epoch>],
        ids: &[S],
        order: &[usize],
        context: &str,
    ) -> Vec<QueryResult> {
        let mut merger = UnfixedMerger::new(g, runs.len());
        let mut most_cached = 0;
        for (epoch, barrier) in runs[0].iter().enumerate() {
            for &source in order {
                let e = &runs[source][epoch];
                for slice in &e.slices {
                    merger.on_slice(ids[source], slice.clone());
                    most_cached = most_cached.max(merger.cached_bundles());
                }
                merger.on_clears(ids[source], &e.clears);
            }
            merger.advance(barrier.watermark);
        }
        let overlapping = merger.queries.values().any(QueryInfo::cached);
        assert_eq!(most_cached > 0, overlapping, "{context}: suffix caches");
        assert_drained(&merger, runs, context);
        let windows: Vec<SealedSlice> = merger.take_ready().collect();
        merger.flush();
        assert_eq!(
            merger.take_ready().count(),
            0,
            "{context}: flush found more"
        );
        finalized(g, windows)
    }

    /// Each source's whole stream, interleaved by `pick` (which source
    /// delivers next, among those with slices left); clears only as the
    /// slices carry them, fixed windows by coverage, then a flush. Every
    /// fixed-window end is announced a second time by its source.
    fn deliver_derived<S: Copy + Ord>(
        g: &QueryGroup,
        runs: &[Vec<Epoch>],
        ids: &[S],
        mut pick: impl FnMut(&[usize]) -> usize,
        context: &str,
    ) -> Vec<QueryResult> {
        let mut merger = UnfixedMerger::new(g, runs.len());
        let mut streams: Vec<_> = runs
            .iter()
            .map(|epochs| epochs.iter().flat_map(|e| &e.slices).peekable())
            .collect();
        loop {
            let left: Vec<usize> = (0..streams.len())
                .filter(|&s| streams[s].peek().is_some())
                .collect();
            if left.is_empty() {
                break;
            }
            let source = pick(&left);
            let Some(slice) = streams[source].next() else {
                continue;
            };
            merger.on_slice(ids[source], slice.clone());
            if let Some(again) = fixed_ends_again(slice, g.selections.len()) {
                merger.on_slice(ids[source], again);
            }
        }
        merger.flush();
        assert_drained(&merger, runs, context);
        finalized(g, merger.take_ready())
    }

    #[test]
    fn release_equals_the_union_stream_for_every_split_interleaving_and_id_space() {
        for overlapping in [false, true] {
            let g = mixed_group(overlapping);
            release_equals_the_union_stream(&g);
        }
    }

    fn release_equals_the_union_stream(g: &QueryGroup) {
        for_cases(12, |seed, rng| {
            let events = arb_stream(rng);
            // One slicer over the union stream, through the plain assembler.
            let reference = finalized(
                g,
                run_sources(g, &events, 1)
                    .remove(0)
                    .into_iter()
                    .flat_map(|e| e.slices),
            );
            for query in 1..=3 {
                assert!(
                    reference.iter().any(|r| r.query == query),
                    "seed {seed:#x}: stream closes no window of query {query}"
                );
            }
            for sources in [1usize, 2, 4] {
                let runs = run_sources(g, &events, sources);
                let dense: Vec<usize> = (0..sources).collect();
                let sparse = [17u32, 3, 40, 9];
                for order in permutations(sources) {
                    let context = format!("seed {seed:#x} sources={sources} order={order:?}");
                    let got = deliver_reported(g, &runs, &dense, &order, &context);
                    assert_eq!(got, reference, "{context} (reported, dense)");
                    let got = deliver_reported(g, &runs, &sparse, &order, &context);
                    assert_eq!(got, reference, "{context} (reported, sparse)");
                    // One source's whole stream before the next's:
                    // worst-case skew.
                    let major = |left: &[usize]| {
                        order
                            .iter()
                            .copied()
                            .find(|s| left.contains(s))
                            .unwrap_or(left[0])
                    };
                    let got = deliver_derived(g, &runs, &sparse, major, &context);
                    assert_eq!(got, reference, "{context} (derived, source-major)");
                }
                for _ in 0..4 {
                    let context = format!("seed {seed:#x} sources={sources} shuffled");
                    let pick = |left: &[usize]| left[rng.gen_range(0..left.len())];
                    let got = deliver_derived(g, &runs, &dense, pick, &context);
                    assert_eq!(got, reference, "{context}");
                }
            }
        });
    }

    /// Feeds each child's whole stream back to back — worst-case skew —
    /// and finalizes what the merger releases.
    fn merge_children(
        g: &QueryGroup,
        streams: &[Vec<Event>],
        watermark: Option<Timestamp>,
    ) -> Vec<QueryResult> {
        let mut merger = UnfixedMerger::new(g, streams.len());
        for (child, events) in streams.iter().enumerate() {
            let mut slicer = GroupSlicer::new(g.clone());
            let mut out = Vec::new();
            for ev in events {
                slicer.on_event(ev, &mut out);
            }
            match watermark {
                Some(wm) => slicer.on_watermark(wm, &mut out),
                None => slicer.flush(&mut out),
            }
            for slice in out {
                merger.on_slice(child as u32 * 7 + 2, slice);
            }
        }
        merger.flush();
        finalized(g, merger.take_ready())
    }

    #[test]
    fn unfixed_merger_joins_sessions_across_children() {
        let g = group(vec![Query::new(
            1,
            WindowSpec::session(100).unwrap(),
            AggFunction::Sum,
        )]);
        // Child 0: events at 0, 50; child 1: events at 30, 80. Both go
        // quiet afterwards -> gaps [50,150] and [80,180] overlap -> one
        // global session summing everything.
        let streams = [
            vec![Event::new(0, 0, 1.0), Event::new(50, 0, 2.0)],
            vec![Event::new(30, 0, 4.0), Event::new(80, 0, 8.0)],
        ];
        let results = merge_children(&g, &streams, Some(1_000));
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].values, vec![Some(15.0)]);
        assert_eq!(results[0].window_start, 0);
        assert_eq!(results[0].window_end, 180);
    }

    #[test]
    fn unfixed_merger_keeps_separate_global_sessions_apart() {
        let g = group(vec![Query::new(
            1,
            WindowSpec::session(100).unwrap(),
            AggFunction::Count,
        )]);
        // Burst 1 around t=0, burst 2 around t=1000 on both children;
        // child 0's second burst arrives before child 1's first.
        let streams = [
            vec![Event::new(0, 0, 1.0), Event::new(1_000, 0, 1.0)],
            vec![Event::new(20, 0, 1.0), Event::new(1_020, 0, 1.0)],
        ];
        let results = merge_children(&g, &streams, Some(5_000));
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].values, vec![Some(2.0)]);
        assert_eq!(results[1].values, vec![Some(2.0)]);
    }

    #[test]
    fn unfixed_merger_merges_user_defined_windows() {
        let g = group(vec![Query::new(
            1,
            WindowSpec::user_defined(0),
            AggFunction::Max,
        )]);
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
        let results = merge_children(&g, &streams, None);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].values, vec![Some(9.0)]);
        assert_eq!(results[0].window_start, 0);
        assert_eq!(results[0].window_end, 22);
    }

    /// Two session queries in one group: removing the first must leave
    /// the second merging (slots are found by query id, not by a
    /// position that removal shifts).
    #[test]
    fn removing_one_session_query_keeps_the_next_one_merging() {
        let g = group(vec![
            Query::new(1, WindowSpec::session(100).unwrap(), AggFunction::Sum),
            Query::new(2, WindowSpec::session(200).unwrap(), AggFunction::Sum),
        ]);
        let mut merger: UnfixedMerger<usize> = UnfixedMerger::new(&g, 1);
        merger.remove_query(1);
        let mut slicer = GroupSlicer::new(g.clone());
        let mut out = Vec::new();
        slicer.on_event(&Event::new(0, 0, 3.0), &mut out);
        slicer.on_watermark(1_000, &mut out);
        for slice in out {
            merger.on_slice(0, slice);
        }
        let results = finalized(&g, merger.take_ready());
        assert_eq!(results.len(), 1, "{results:?}");
        assert_eq!((results[0].query, results[0].window_end), (2, 200));
    }
}
