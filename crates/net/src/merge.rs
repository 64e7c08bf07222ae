//! Merging machinery for intermediate and root nodes (paper Section 5).
//!
//! * [`AlignedSliceMerger`] — the aligned-slice merge of fixed-window
//!   groups. It is `desis_core::engine::merge`'s: a child node is merged
//!   exactly like a shard, and this module re-exports it. What it
//!   releases is assembled by the core `Assembler`, which derives an
//!   aligned group's window ends from the specs.
//! * [`UnfixedRootMerger`] — session and user-defined windows slice at
//!   data-driven points that differ per stream (Section 5.1.2). They
//!   merge per window in `desis_core::engine::merge::UnfixedMerger`, the
//!   merger the sharded collector runs over its shards, keyed at the
//!   root by originating `NodeId`, and what it releases is finalized by
//!   the core `Assembler`. The root holds the two halves apart (a core
//!   `GroupMerger` in front of the group's terminal); this is the pair
//!   in one piece, for driving a single group by hand.
//! * [`EventMerger`] — watermark-aligned reordering of raw event streams
//!   for root-processed groups (count windows, centralized baselines).
//! * [`PartialAssembler`] / [`WindowPartialMerger`] — the Disco baseline's
//!   per-*window* partials (Section 5, "Disco has to send partial results
//!   per window").
//!
//! Everything here scans, merges, finalizes and garbage-collects slice
//! partials through the core slice-store kernel.

use std::collections::VecDeque;

use rustc_hash::FxHashMap;

use desis_core::engine::merge::{
    finalize_key, merge_one, query_infos, KeyedBundles, QueryInfo, SliceRange, SliceStore,
    UnfixedMerger,
};
use desis_core::engine::{Assembler, QueryGroup, SealedSlice};
use desis_core::event::Event;
use desis_core::query::{QueryId, QueryResult};
use desis_core::time::Timestamp;

pub use desis_core::engine::merge::AlignedSliceMerger;

/// The one core [`Assembler`], under the name the repo benchmark imports;
/// ROADMAP item 12's next benchmark change imports `Assembler` and
/// removes this alias.
pub use desis_core::engine::Assembler as TimeAssembler;

use crate::message::WindowPartial;
use crate::topology::NodeId;

// ---------------------------------------------------------------------
// Unfixed windows at the root (Section 5.1.2).
// ---------------------------------------------------------------------

/// Root-side merging of groups containing session or user-defined
/// windows: the core unfixed merger with the local streams' `NodeId`s as
/// its sources, piped into the ordinary assembler. Child contributions
/// fold in arrival order.
#[derive(Debug)]
pub struct UnfixedRootMerger {
    merger: UnfixedMerger<NodeId>,
    assembler: Assembler,
}

impl UnfixedRootMerger {
    /// Creates a merger expecting partials from `expected_children` local
    /// streams (clamped to at least 1).
    pub fn new(group: &QueryGroup, expected_children: usize) -> Self {
        Self {
            merger: UnfixedMerger::new(group, expected_children),
            assembler: Assembler::new(group),
        }
    }

    /// Ingests one child partial, identified by its originating local
    /// node.
    pub fn on_slice(&mut self, origin: NodeId, partial: SealedSlice, out: &mut Vec<QueryResult>) {
        self.merger.on_slice(origin, partial);
        self.assemble(out);
    }

    /// Advances the global watermark (idle children produce no slices but
    /// still vouch for time via watermarks).
    pub fn on_watermark(&mut self, wm: Timestamp, out: &mut Vec<QueryResult>) {
        self.merger.advance(wm);
        self.assemble(out);
    }

    /// End of all streams: nothing can extend a pending session any more.
    pub fn flush(&mut self, out: &mut Vec<QueryResult>) {
        self.merger.flush();
        self.assemble(out);
    }

    fn assemble(&mut self, out: &mut Vec<QueryResult>) {
        for window in self.merger.take_ready() {
            self.assembler.on_slice(window, out);
        }
    }
}

// ---------------------------------------------------------------------
// Raw event merging (root-processed groups, centralized baselines).
// ---------------------------------------------------------------------

/// Watermark-aligned k-way merge of raw event streams into the one
/// sequence ordered by `(timestamp, child id, position in the child's
/// stream)`, whatever the arrival order of the children's messages.
///
/// A child that vouched for `t` — by a watermark at `t`, or by a batch
/// whose last event is at `t` — has sent everything *below* `t` and may
/// still send events *at* `t` (a batch boundary or a watermark can fall
/// inside a millisecond). So an event of child `c` at `t` is released
/// once every child before `c` vouched past `t` and every child after it
/// vouched for `t`: count-measured windows depend on the order being one.
#[derive(Debug)]
pub struct EventMerger {
    /// The children heard of so far, ascending by id.
    children: Vec<ChildEvents>,
    expected_children: usize,
}

#[derive(Debug, Default)]
struct ChildEvents {
    id: NodeId,
    queue: VecDeque<Event>,
    guarantee: Timestamp,
    flushed: bool,
}

impl ChildEvents {
    /// No event at or below `ts` is still to come.
    fn vouched_past(&self, ts: Timestamp) -> bool {
        self.flushed || self.guarantee > ts
    }

    /// No event below `ts` is still to come.
    fn vouched_for(&self, ts: Timestamp) -> bool {
        self.flushed || self.guarantee >= ts
    }
}

impl EventMerger {
    /// Creates a merger over `expected_children` event streams (clamped
    /// to at least 1).
    pub fn new(expected_children: usize) -> Self {
        Self {
            children: Vec::new(),
            expected_children: expected_children.max(1),
        }
    }

    fn child(&mut self, origin: NodeId) -> &mut ChildEvents {
        let at = match self.children.binary_search_by_key(&origin, |c| c.id) {
            Ok(at) => at,
            Err(at) => {
                let child = ChildEvents {
                    id: origin,
                    ..ChildEvents::default()
                };
                self.children.insert(at, child);
                at
            }
        };
        &mut self.children[at]
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

    /// Releases, in merged order, every event no child can still get
    /// ahead of (none until every expected child was heard of).
    pub fn drain_ready(&mut self, out: &mut Vec<Event>) {
        if self.children.len() < self.expected_children {
            return;
        }
        loop {
            // The earliest queued event, the lowest child first. If it
            // must wait, so must every later one.
            let mut next: Option<(usize, Timestamp)> = None;
            for (at, child) in self.children.iter().enumerate() {
                if let Some(ev) = child.queue.front() {
                    if next.is_none_or(|(_, ts)| ev.ts < ts) {
                        next = Some((at, ev.ts));
                    }
                }
            }
            let Some((at, ts)) = next else { break };
            let (before, after) = self.children.split_at(at);
            if !(before.iter().all(|c| c.vouched_past(ts))
                && after[1..].iter().all(|c| c.vouched_for(ts)))
            {
                break;
            }
            out.extend(self.children[at].queue.pop_front());
        }
    }

    /// Whether every child flushed and all buffers are drained.
    pub fn finished(&self) -> bool {
        self.children.len() == self.expected_children
            && self
                .children
                .iter()
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
    /// Partials rejected because nobody installed their query.
    unroutable: u64,
}

impl WindowPartialMerger {
    /// Creates a merger covering `expected_coverage` local streams
    /// (clamped to at least 1).
    pub fn new(group: &QueryGroup, expected_coverage: u32) -> Self {
        Self {
            queries: query_infos(group).collect(),
            expected_coverage: expected_coverage.max(1),
            pending: FxHashMap::default(),
            unroutable: 0,
        }
    }

    /// Windows still waiting for contributions from some covered stream.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Partials dropped so far for naming a query this merger never
    /// heard of.
    pub(crate) fn unroutable(&self) -> u64 {
        self.unroutable
    }

    /// Folds one child partial in; returns the merged partial when all
    /// streams contributed. A partial of an unknown query — input from
    /// outside the process — is dropped and counted, never pended.
    pub fn on_partial(&mut self, partial: WindowPartial, coverage: u32) -> Option<WindowPartial> {
        if !self.queries.contains_key(&partial.query) {
            self.unroutable += 1;
            return None;
        }
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

    /// Finalizes a fully merged partial into per-key results (none for a
    /// query this merger never heard of).
    pub fn finalize(&self, partial: &WindowPartial, out: &mut Vec<QueryResult>) {
        let Some(info) = self.queries.get(&partial.query) else {
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

    /// Through the facade; the merger's own suite lives beside it in
    /// `desis_core::engine::merge`.
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
    fn event_merger_orders_across_children() {
        let mut m = EventMerger::new(2);
        m.on_events(0, vec![Event::new(10, 0, 1.0), Event::new(30, 0, 3.0)]);
        m.on_events(1, vec![Event::new(20, 1, 2.0)]);
        let mut out = Vec::new();
        m.drain_ready(&mut out);
        // Child 0 vouched for 30 and child 1 for 20: the events at 10 and
        // 20 are safe.
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
