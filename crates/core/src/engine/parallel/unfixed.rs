//! Cross-shard merging of *unfixed* (session / user-defined) window
//! groups — the collector-side twin of the decentralized
//! `UnfixedRootMerger`, with shards in the role of children.
//!
//! A key-sharded slicer sees only its shard's events, so a global
//! session splits into per-shard *fragments*: each shard closes a
//! fragment when its own gap elapses, and fragments of one global
//! session strictly overlap (the bridging events that joined them are
//! within the gap of both). [`UnfixedShardMerger`] span-overlap-merges
//! closed fragments into pending global sessions and holds each one
//! until every live shard's *clear frontier* for that query has passed
//! the session end — an open fragment that could still extend the
//! session keeps the frontier at its own start, so no session is ever
//! emitted before the sequential engine would have closed it, and at a
//! watermark barrier every session the sequential engine has closed is
//! emitted (an open fragment starting before the session end would have
//! kept the sequential session open too).
//!
//! User-defined windows close at broadcast markers, which every shard
//! observes at the same stream position: each shard contributes exactly
//! one partial per window, and a window completes when all live shards
//! have queued theirs. Fixed-window ends (present when a decentralized
//! query-group mixes fixed and unfixed windows) merge by `(query,
//! start, end)` with shard-coverage counting, force-released once the
//! merged shard frontier passes the window end.
//!
//! The merger re-emits every completed window as a *self-contained*
//! sealed slice — merged data, one `WindowEnd` referencing the slice
//! itself, and for sessions the closing `SessionGap` — so the stream it
//! produces feeds the ordinary [`crate::engine::Assembler`] unchanged
//! and ships upstream byte-compatible with what a sequential child
//! would make the root compute.

use std::collections::{BTreeMap, VecDeque};

use rustc_hash::FxHashMap;

use crate::engine::group::QueryGroup;
use crate::engine::merge::{SliceRange, SliceStore};
use crate::engine::slice::{SealedSlice, SessionGap, SliceData, SliceId, WindowEnd};
use crate::obs::trace::{SpanKind, TraceId, TraceRecorder};
use crate::query::QueryId;
use crate::time::{DurationMs, Timestamp};

/// Window kind of an incoming `WindowEnd`, resolved per query id.
#[derive(Debug, Clone, Copy)]
enum EndKind {
    /// Index into the session slot list.
    Session(usize),
    /// Index into the user-defined slot list.
    Ud(usize),
    /// Fixed (time-measured tumbling/sliding) — coverage-counted.
    Fixed,
}

/// A merged-but-unreleased global session.
#[derive(Debug)]
struct PendingSession {
    start: Timestamp,
    end: Timestamp,
    data: SliceData,
    /// Causal trace carried through the merge: the first traced
    /// fragment absorbed into the session wins (the merged window has
    /// one representative provenance chain, like the fixed merge path).
    trace: Option<TraceId>,
}

/// Per-session-query merge state.
#[derive(Debug)]
struct SessionSlot {
    query: QueryId,
    query_idx: usize,
    gap: DurationMs,
    pending: Vec<PendingSession>,
    /// Per-shard clear frontier: no fragment starting before this can
    /// still arrive from that shard. `Timestamp::MAX` once the shard
    /// reported the query's slot gone (removed or fully drained).
    clears: Vec<Timestamp>,
}

/// One queued user-defined window partial: `(start, end, data, trace)`.
type UdPartial = (Timestamp, Timestamp, SliceData, Option<TraceId>);

/// Per-user-defined-query merge state.
#[derive(Debug)]
struct UdSlot {
    query: QueryId,
    /// Per-shard FIFO of window partials — the k-th entry of every
    /// queue is the k-th window of the query.
    queues: Vec<VecDeque<UdPartial>>,
}

/// A fixed window accumulating shard contributions.
#[derive(Debug)]
struct FixedPending {
    data: SliceData,
    seen: Vec<bool>,
    /// First traced shard contribution — the merged window's
    /// representative provenance chain.
    trace: Option<TraceId>,
}

/// Merges the per-shard slice streams of one unfixed query-group back
/// into a deterministic stream of self-contained per-window slices.
#[derive(Debug)]
pub struct UnfixedShardMerger {
    shards: usize,
    selections: usize,
    /// Per-shard retained slices (ids are shard-local), gc'd by the
    /// shard's own low watermark.
    stores: Vec<SliceStore>,
    dead: Vec<bool>,
    kinds: FxHashMap<QueryId, EndKind>,
    sessions: Vec<SessionSlot>,
    uds: Vec<UdSlot>,
    /// Fixed windows keyed `(end, start, query)` — released in this
    /// order by coverage or by the merged shard frontier.
    fixed: BTreeMap<(Timestamp, Timestamp, QueryId), FixedPending>,
    forced_up_to: Timestamp,
    next_id: SliceId,
    ready: VecDeque<SealedSlice>,
    recorder: Option<TraceRecorder>,
}

impl UnfixedShardMerger {
    /// Creates a merger for `group` over `shards` per-shard slicers.
    pub fn new(group: &QueryGroup, shards: usize) -> Self {
        let shards = shards.max(1);
        let mut kinds = FxHashMap::default();
        let sessions: Vec<SessionSlot> = group
            .session_queries()
            .into_iter()
            .map(|(query_idx, gap)| {
                let query = group.queries[query_idx].query.id;
                kinds.insert(query, EndKind::Session(0));
                SessionSlot {
                    query,
                    query_idx,
                    gap,
                    pending: Vec::new(),
                    clears: vec![0; shards],
                }
            })
            .collect();
        for (pos, slot) in sessions.iter().enumerate() {
            kinds.insert(slot.query, EndKind::Session(pos));
        }
        let uds: Vec<UdSlot> = group
            .user_defined_queries()
            .into_iter()
            .map(|(query_idx, _)| UdSlot {
                query: group.queries[query_idx].query.id,
                queues: vec![VecDeque::new(); shards],
            })
            .collect();
        for (pos, slot) in uds.iter().enumerate() {
            kinds.insert(slot.query, EndKind::Ud(pos));
        }
        for cq in &group.queries {
            kinds.entry(cq.query.id).or_insert(EndKind::Fixed);
        }
        Self {
            shards,
            selections: group.selections.len(),
            stores: vec![SliceStore::default(); shards],
            dead: vec![false; shards],
            kinds,
            sessions,
            uds,
            fixed: BTreeMap::new(),
            forced_up_to: 0,
            next_id: 0,
            ready: VecDeque::new(),
            recorder: None,
        }
    }

    /// Enables causal tracing: the merger records `MergeStart` when a
    /// traced shard partial is adopted as a window's representative
    /// chain and `MergeDone` when the merged window is emitted, and the
    /// emitted slice carries the trace on to the assembler.
    pub fn set_recorder(&mut self, recorder: TraceRecorder) {
        self.recorder = Some(recorder);
    }

    /// Live (non-degraded) shard count.
    fn live(&self) -> usize {
        self.dead.iter().filter(|d| !**d).count()
    }

    /// Merged data of the shard-local slice id range `[first, last]`.
    fn extract(&self, shard: usize, first: SliceId, last: SliceId) -> SliceData {
        let mut data = SliceData::new(self.selections);
        for (sel, merged) in data.per_selection.iter_mut().enumerate() {
            self.stores[shard].merge_range(SliceRange::Ids(first, last), sel, merged);
        }
        data
    }

    /// Folds one shard's sealed slice in: stores its data, then absorbs
    /// every window end it carries.
    pub fn on_slice(&mut self, shard: usize, slice: SealedSlice) {
        if shard >= self.shards || self.dead[shard] {
            return;
        }
        let ends = slice.ends;
        let low = slice.low_watermark;
        let trace = slice.trace;
        self.stores[shard].push(slice.id, slice.start_ts, slice.end_ts, slice.data);
        for end in &ends {
            let Some(kind) = self.kinds.get(&end.query).copied() else {
                continue;
            };
            let data = self.extract(shard, end.first_slice, end.last_slice);
            match kind {
                EndKind::Session(pos) => {
                    self.absorb_session(pos, end.start_ts, end.end_ts, data, trace);
                }
                EndKind::Ud(pos) => {
                    self.uds[pos].queues[shard].push_back((end.start_ts, end.end_ts, data, trace));
                }
                EndKind::Fixed => {
                    let entry = self
                        .fixed
                        .entry((end.end_ts, end.start_ts, end.query))
                        .or_insert_with(|| FixedPending {
                            data: SliceData::new(self.selections),
                            seen: vec![false; self.shards],
                            trace: None,
                        });
                    if !entry.seen[shard] {
                        entry.seen[shard] = true;
                        entry.data.merge(&data);
                        if entry.trace.is_none() {
                            if let Some(id) = trace {
                                entry.trace = Some(id);
                                if let Some(rec) = &mut self.recorder {
                                    rec.record(id, SpanKind::MergeStart);
                                }
                            }
                        }
                    }
                }
            }
        }
        // Everything below the shard's own low watermark is no longer
        // referenced by any of its open or future windows.
        self.stores[shard].gc_ids(low);
        self.release_uds();
        self.release_fixed();
    }

    /// Span-overlap-merges a closed fragment into the query's pending
    /// sessions (strict overlap: touching sessions are distinct).
    fn absorb_session(
        &mut self,
        pos: usize,
        start: Timestamp,
        end: Timestamp,
        data: SliceData,
        trace: Option<TraceId>,
    ) {
        let slot = &mut self.sessions[pos];
        let mut merged = PendingSession {
            start,
            end,
            data,
            trace: None,
        };
        let mut keep = Vec::with_capacity(slot.pending.len());
        for p in slot.pending.drain(..) {
            if p.start < merged.end && merged.start < p.end {
                merged.start = merged.start.min(p.start);
                merged.end = merged.end.max(p.end);
                merged.data.merge(&p.data);
                if merged.trace.is_none() {
                    merged.trace = p.trace;
                }
            } else {
                keep.push(p);
            }
        }
        // Absorbed pendings keep their (earlier-adopted) representative
        // chain; only a fragment founding an untraced session starts one.
        if merged.trace.is_none() {
            if let Some(id) = trace {
                merged.trace = Some(id);
                if let Some(rec) = &mut self.recorder {
                    rec.record(id, SpanKind::MergeStart);
                }
            }
        }
        keep.push(merged);
        slot.pending = keep;
    }

    /// Applies one shard's clear-frontier report (sent at every
    /// watermark barrier and at flush). Session queries absent from the
    /// report have no slot on that shard anymore — removed or fully
    /// drained — so nothing further can arrive from it.
    pub fn on_clears(&mut self, shard: usize, clears: &[(usize, Timestamp)]) {
        if shard >= self.shards || self.dead[shard] {
            return;
        }
        for slot in &mut self.sessions {
            let reported = clears
                .iter()
                .find(|(idx, _)| *idx == slot.query_idx)
                .map(|(_, ts)| *ts)
                .unwrap_or(Timestamp::MAX);
            if reported > slot.clears[shard] {
                slot.clears[shard] = reported;
            }
        }
        self.release_sessions();
    }

    /// Every live shard's frontier passed `wm`: fixed windows ending at
    /// or before it release even without full shard coverage (idle
    /// shards sealed nothing for the span).
    pub fn advance(&mut self, wm: Timestamp) {
        if wm > self.forced_up_to {
            self.forced_up_to = wm;
            self.release_fixed();
        }
    }

    /// Degrades a shard: its stored partials are dropped and it no
    /// longer gates coverage or clear frontiers (results may be partial,
    /// mirroring a lost child in the decentralized substrate).
    pub fn mark_dead(&mut self, shard: usize) {
        if shard >= self.shards || self.dead[shard] {
            return;
        }
        self.dead[shard] = true;
        self.stores[shard] = SliceStore::default();
        for slot in &mut self.uds {
            slot.queues[shard].clear();
        }
        self.release_sessions();
        self.release_uds();
        self.release_fixed();
    }

    /// Purges every trace of a removed query.
    pub fn remove_query(&mut self, id: QueryId) {
        self.sessions.retain(|s| s.query != id);
        self.uds.retain(|u| u.query != id);
        self.fixed.retain(|(_, _, q), _| *q != id);
        self.kinds.remove(&id);
    }

    fn release_sessions(&mut self) {
        for pos in 0..self.sessions.len() {
            let clear = {
                let slot = &self.sessions[pos];
                slot.clears
                    .iter()
                    .zip(&self.dead)
                    .filter(|(_, dead)| !**dead)
                    .map(|(c, _)| *c)
                    .min()
                    .unwrap_or(Timestamp::MAX)
            };
            let mut due: Vec<PendingSession> = Vec::new();
            {
                let slot = &mut self.sessions[pos];
                let mut keep = Vec::with_capacity(slot.pending.len());
                for p in slot.pending.drain(..) {
                    if p.end <= clear {
                        due.push(p);
                    } else {
                        keep.push(p);
                    }
                }
                slot.pending = keep;
            }
            due.sort_by_key(|p| (p.end, p.start));
            let (query, gap) = {
                let slot = &self.sessions[pos];
                (slot.query, slot.gap)
            };
            for p in due {
                let PendingSession {
                    start,
                    end,
                    data,
                    trace,
                } = p;
                let gap_start = end.saturating_sub(gap);
                self.emit(
                    query,
                    start,
                    end,
                    data,
                    Some(SessionGap {
                        query,
                        gap_start,
                        gap_end: end,
                    }),
                    trace,
                );
            }
        }
    }

    fn release_uds(&mut self) {
        for pos in 0..self.uds.len() {
            loop {
                let complete = {
                    let slot = &self.uds[pos];
                    slot.queues
                        .iter()
                        .zip(&self.dead)
                        .all(|(q, dead)| *dead || !q.is_empty())
                        && self.live() > 0
                };
                if !complete {
                    break;
                }
                let mut span: Option<(Timestamp, Timestamp)> = None;
                let mut data = SliceData::new(self.selections);
                let mut trace = None;
                let query = self.uds[pos].query;
                for shard in 0..self.shards {
                    if self.dead[shard] {
                        continue;
                    }
                    if let Some((s, e, d, t)) = self.uds[pos].queues[shard].pop_front() {
                        data.merge(&d);
                        if trace.is_none() {
                            trace = t;
                        }
                        span = Some(match span {
                            Some((ms, me)) => (ms.min(s), me.max(e)),
                            None => (s, e),
                        });
                    }
                }
                let Some((start, end)) = span else { break };
                // Adoption happens at release for user-defined windows
                // (the k-th window completes only once every live shard
                // queued its k-th partial), so the merge span collapses
                // to the release instant.
                if let (Some(rec), Some(id)) = (&mut self.recorder, trace) {
                    rec.record(id, SpanKind::MergeStart);
                }
                self.emit(query, start, end, data, None, trace);
            }
        }
    }

    fn release_fixed(&mut self) {
        let live = self.live() as u32;
        loop {
            let releasable = match self.fixed.iter().next() {
                Some(((end, _, _), entry)) => {
                    let coverage = entry
                        .seen
                        .iter()
                        .zip(&self.dead)
                        .filter(|(seen, dead)| **seen && !**dead)
                        .count() as u32;
                    coverage >= live || *end <= self.forced_up_to
                }
                None => false,
            };
            if !releasable {
                break;
            }
            let Some(((end, start, query), entry)) = self.fixed.pop_first() else {
                break;
            };
            self.emit(query, start, end, entry.data, None, entry.trace);
        }
    }

    /// Emits one self-contained slice: the merged window data plus a
    /// single `WindowEnd` referencing the slice itself, gc-able
    /// immediately (`low_watermark = id + 1`).
    fn emit(
        &mut self,
        query: QueryId,
        start_ts: Timestamp,
        end_ts: Timestamp,
        data: SliceData,
        gap: Option<SessionGap>,
        trace: Option<TraceId>,
    ) {
        if let (Some(rec), Some(id)) = (&mut self.recorder, trace) {
            rec.record(id, SpanKind::MergeDone);
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

    /// Drains completed windows, tagged with their group index.
    pub fn drain_ready(&mut self, group: usize, out: &mut Vec<(usize, SealedSlice)>) {
        out.extend(self.ready.drain(..).map(|s| (group, s)));
    }

    /// Pending state retained (sessions + fixed windows + queued
    /// user-defined partials) — observability / test hook.
    pub fn pending_len(&self) -> usize {
        self.pending_sessions() + self.fixed.len() + self.queued_ud_slices()
    }

    /// Merged-but-unreleased global sessions held for clear frontiers
    /// (shard-balance telemetry: `engine.unfixed.pending_sessions`).
    pub fn pending_sessions(&self) -> usize {
        self.sessions.iter().map(|s| s.pending.len()).sum()
    }

    /// Queued user-defined window partials awaiting full shard coverage
    /// (shard-balance telemetry: `engine.unfixed.queued_ud_slices`).
    pub fn queued_ud_slices(&self) -> usize {
        self.uds
            .iter()
            .flat_map(|u| u.queues.iter())
            .map(VecDeque::len)
            .sum()
    }
}
