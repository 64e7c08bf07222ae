//! One merge tree: a shard is a child (paper Sections 4.3 and 5.1.1).
//!
//! "Slice once, merge per-slice partials up a tree" — each half of that
//! idea is implemented here once and used at every level of the tree:
//!
//! * [`AlignedSliceMerger`] — fixed time windows punctuate at the same
//!   instants on every source, so partials merge by slice **end**. The
//!   sharded collector runs it with coverage 1 per shard; intermediate
//!   and root nodes with the coverage each child frame declares.
//! * [`TimeAssembler`] — window assembly over merged slices by time
//!   range. An aligned group holds only queries with precomputable
//!   punctuations (session/user-defined groups go to [`UnfixedMerger`],
//!   count windows are replayed or processed raw), so window ends are
//!   derived from the specs: merged slices carry data only and local
//!   nodes strip `ends` before shipping.
//! * [`UnfixedMerger`] — session and user-defined windows end at
//!   data-driven points that differ per source, so partials merge per
//!   *window*: span-overlap session absorption gated by per-source clear
//!   frontiers, k-th-partial queues for marker-delimited windows. The
//!   sharded collector runs it over shard indices, the root over the
//!   `NodeId`s of its local streams.
//! * the slice-store kernel — [`SliceStore`], [`merge_keyed`],
//!   [`finalize_sorted`], [`record_assembly`] — which every assembler and
//!   merger in the workspace calls instead of carrying its own range
//!   scan, per-key merge, sorted emission or front-gc loop.
//!
//! Slices also arrive in frames from outside the process and may declare
//! fewer selections than their group has: the kernel reads selections
//! with `get`, so a missing selection is an empty contribution, never an
//! index panic.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, VecDeque};

use rustc_hash::FxHashMap;

use crate::aggregate::{AggFunction, OperatorBundle};
use crate::engine::group::QueryGroup;
use crate::engine::slice::{SealedSlice, SliceData, SliceId};
use crate::event::Key;
use crate::obs::trace::{SpanKind, TraceId, TraceRecorder};
use crate::query::{QueryId, QueryResult};
use crate::time::Timestamp;
use crate::window::WindowSpec;

mod unfixed;

pub use unfixed::UnfixedMerger;

// ---------------------------------------------------------------------
// The slice-store kernel.
// ---------------------------------------------------------------------

/// Per-key operator partials of one selection.
pub type KeyedBundles = FxHashMap<Key, OperatorBundle>;

/// What assembling or merging a member query's windows needs to know.
#[derive(Debug, Clone)]
pub struct QueryInfo {
    /// Index of the query's selection in the group's slice data.
    pub selection: usize,
    /// Functions finalized per window and key.
    pub functions: Vec<AggFunction>,
    /// The query's window.
    pub window: WindowSpec,
}

/// The member queries of `group`, in group order.
pub fn query_infos(group: &QueryGroup) -> impl Iterator<Item = (QueryId, QueryInfo)> + '_ {
    group.queries.iter().map(|cq| {
        let info = QueryInfo {
            selection: cq.selection as usize,
            functions: cq.query.functions.clone(),
            window: cq.query.window,
        };
        (cq.query.id, info)
    })
}

/// Folds one key's partial into `dst`. Returns `true` when it merged
/// into a bundle already present and `false` when it was the key's first
/// contribution (a clone, not a merge).
#[inline]
pub fn merge_one(dst: &mut KeyedBundles, key: Key, bundle: &OperatorBundle) -> bool {
    match dst.get_mut(&key) {
        Some(b) => {
            b.merge(bundle);
            true
        }
        None => {
            dst.insert(key, bundle.clone());
            false
        }
    }
}

/// Merges `src` into `dst` per key. Returns the number of
/// bundle-into-bundle merges performed — the one meaning of
/// [`crate::metrics::EngineMetrics::merges`].
pub fn merge_keyed(dst: &mut KeyedBundles, src: &KeyedBundles) -> u64 {
    let mut merges = 0;
    if dst.is_empty() {
        // The first partial sizes the merged map, so folding in the rest
        // of a range does not rehash it on the way up.
        dst.reserve(src.len());
    }
    for (key, bundle) in src {
        merges += u64::from(merge_one(dst, *key, bundle));
    }
    merges
}

/// Finalizes `functions` for one key's merged partial.
#[inline]
pub fn finalize_key(
    query: QueryId,
    functions: &[AggFunction],
    key: Key,
    bundle: &OperatorBundle,
    start_ts: Timestamp,
    end_ts: Timestamp,
) -> QueryResult {
    QueryResult {
        query,
        key,
        window_start: start_ts,
        window_end: end_ts,
        values: functions.iter().map(|f| bundle.finalize(f)).collect(),
    }
}

/// Finalizes `functions` for every key of `merged`, emitting in ascending
/// key order so output is hash-order-free even before any canonical sort.
pub fn finalize_sorted(
    query: QueryId,
    functions: &[AggFunction],
    merged: &KeyedBundles,
    start_ts: Timestamp,
    end_ts: Timestamp,
    out: &mut Vec<QueryResult>,
) {
    // Bare keys are sorted and each looked up again by index: sorting
    // (key, &bundle) pairs, or `get` in place of the index, each measured
    // ~10% slower end to end on a 256-key sliding workload.
    let mut keys: Vec<Key> = merged.keys().copied().collect();
    keys.sort_unstable();
    for key in keys {
        let bundle = &merged[&key];
        out.push(finalize_key(
            query, functions, key, bundle, start_ts, end_ts,
        ));
    }
}

/// Records `WindowAssembled` plus one `ResultEmitted` per distinct query
/// for the results a traced slice just produced.
pub fn record_assembly(
    recorder: &mut Option<TraceRecorder>,
    trace: Option<TraceId>,
    new_results: &[QueryResult],
) {
    let (Some(rec), Some(id)) = (recorder.as_mut(), trace) else {
        return;
    };
    if new_results.is_empty() {
        return;
    }
    rec.record(id, SpanKind::WindowAssembled);
    let mut queries: Vec<QueryId> = new_results.iter().map(|r| r.query).collect();
    queries.sort_unstable();
    queries.dedup();
    for query in queries {
        rec.record(id, SpanKind::ResultEmitted { query });
    }
}

/// Which retained slices a window covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SliceRange {
    /// Source-local slice ids `first ..= last`.
    Ids(SliceId, SliceId),
    /// Slices lying within the event-time span `[start, end]` (merged
    /// slice ids are merger-local, so assembly over them goes by time).
    Span(Timestamp, Timestamp),
}

/// Memo of merged ranges, valid while the store is unchanged: windows of
/// different queries often cover the same `(selection, range)` (a
/// thousand equal-length tumbling windows with different functions,
/// Figure 9c), which is then merged once.
pub type RangeCache = FxHashMap<(usize, SliceRange), KeyedBundles>;

#[derive(Debug, Clone)]
struct StoredSlice {
    id: SliceId,
    start_ts: Timestamp,
    end_ts: Timestamp,
    data: SliceData,
}

/// Slice partials of one source, retained in arrival order until no
/// window can reference them.
#[derive(Debug, Clone, Default)]
pub struct SliceStore {
    slices: VecDeque<StoredSlice>,
}

impl SliceStore {
    /// Retains one slice's partials.
    pub fn push(&mut self, id: SliceId, start_ts: Timestamp, end_ts: Timestamp, data: SliceData) {
        self.slices.push_back(StoredSlice {
            id,
            start_ts,
            end_ts,
            data,
        });
    }

    /// Slices currently retained.
    pub fn len(&self) -> usize {
        self.slices.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.slices.is_empty()
    }

    /// Merges selection `sel` of every retained slice in `range` into
    /// `dst`; returns the bundle-into-bundle merges performed. A slice
    /// without that selection contributes nothing.
    pub fn merge_range(&self, range: SliceRange, sel: usize, dst: &mut KeyedBundles) -> u64 {
        let mut merges = 0;
        for stored in &self.slices {
            let covered = match range {
                SliceRange::Ids(first, last) => stored.id >= first && stored.id <= last,
                SliceRange::Span(start, end) => stored.start_ts >= start && stored.end_ts <= end,
            };
            if covered {
                if let Some(map) = stored.data.per_selection.get(sel) {
                    merges += merge_keyed(dst, map);
                }
            }
        }
        merges
    }

    /// [`SliceStore::merge_range`] memoized in `cache`; `merges` is
    /// advanced only when the range is actually merged.
    pub fn merged_range<'c>(
        &self,
        range: SliceRange,
        sel: usize,
        cache: &'c mut RangeCache,
        merges: &mut u64,
    ) -> &'c KeyedBundles {
        match cache.entry((sel, range)) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let mut merged = KeyedBundles::default();
                *merges += self.merge_range(range, sel, &mut merged);
                e.insert(merged)
            }
        }
    }

    /// Drops slices with ids below `low` from the front (Section 4.3:
    /// partials that belong to no window any more are deleted).
    pub fn gc_ids(&mut self, low: SliceId) {
        self.gc_while(|s| s.id < low);
    }

    /// Drops slices ending at or before `low_ts` from the front (ids do
    /// not cross a merge, so merged streams gc by event time).
    pub fn gc_span(&mut self, low_ts: Timestamp) {
        self.gc_while(|s| s.end_ts <= low_ts);
    }

    fn gc_while(&mut self, dead: impl Fn(&StoredSlice) -> bool) {
        while self.slices.front().is_some_and(&dead) {
            self.slices.pop_front();
        }
    }
}

// ---------------------------------------------------------------------
// Aligned slice merging (fixed time windows).
// ---------------------------------------------------------------------

/// Merges the per-source partials of a fixed-window group back into one
/// slice stream — sources being shard threads or child nodes.
///
/// Fixed time windows punctuate at the same instants on every source, so
/// slices are keyed by their **end** timestamp (start timestamps differ
/// for the first slice of a late-starting stream). Merged slices are
/// released strictly in end order: a completed slice is held back while
/// an earlier one still misses contributions, and watermarks
/// force-complete slices of streams that were idle over the interval.
/// The merged slice carries data only: window ends are re-derived by
/// [`TimeAssembler`] and aligned groups have no session gaps.
#[derive(Debug)]
pub struct AlignedSliceMerger {
    /// Number of local streams below this merger.
    expected_coverage: u32,
    pending: BTreeMap<Timestamp, PendingSlice>,
    next_id: SliceId,
    /// Slices ending at or before this are releasable even if incomplete
    /// (all covered streams are known to be past this time).
    forced_up_to: Timestamp,
    ready: VecDeque<SealedSlice>,
    /// Provenance span recorder; `None` (the default) disables tracing.
    recorder: Option<TraceRecorder>,
}

#[derive(Debug)]
struct PendingSlice {
    start_ts: Timestamp,
    data: SliceData,
    coverage: u32,
    low_ts: Timestamp,
    /// Provenance carried by the merged slice: the first traced
    /// contribution (one representative leaf per merged slice).
    trace: Option<TraceId>,
}

impl AlignedSliceMerger {
    /// Creates a merger covering `expected_coverage` local streams
    /// (clamped to at least 1).
    pub fn new(expected_coverage: u32) -> Self {
        Self {
            expected_coverage: expected_coverage.max(1),
            pending: BTreeMap::new(),
            next_id: 0,
            forced_up_to: 0,
            ready: VecDeque::new(),
            recorder: None,
        }
    }

    /// Enables causal slice tracing: traced partials record
    /// `MergeStart`/`MergeDone` spans, and the released merged slice
    /// carries the first contributing trace id onward.
    pub fn set_recorder(&mut self, recorder: TraceRecorder) {
        self.recorder = Some(recorder);
    }

    /// Number of slices waiting for missing sources.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Folds in one partial standing for `coverage` local streams.
    pub fn on_slice(&mut self, partial: SealedSlice, coverage: u32) {
        let end_ts = partial.end_ts;
        let entry = self.pending.entry(end_ts).or_insert_with(|| PendingSlice {
            start_ts: partial.start_ts,
            data: SliceData::new(partial.data.per_selection.len()),
            coverage: 0,
            low_ts: Timestamp::MAX,
            trace: None,
        });
        if entry.trace.is_none() {
            if let Some(id) = partial.trace {
                entry.trace = Some(id);
                if let Some(rec) = &mut self.recorder {
                    rec.record(id, SpanKind::MergeStart);
                }
            }
        }
        entry.start_ts = entry.start_ts.min(partial.start_ts);
        entry.data.merge(&partial.data);
        entry.coverage = entry.coverage.saturating_add(coverage);
        entry.low_ts = entry.low_ts.min(partial.low_watermark_ts);
        self.release();
    }

    /// Marks every covered stream as having advanced to `wm`: incomplete
    /// slices ending at or before `wm` become releasable (their missing
    /// streams were idle, or lost).
    pub fn advance_watermark(&mut self, wm: Timestamp) {
        if wm > self.forced_up_to {
            self.forced_up_to = wm;
            self.release();
        }
    }

    fn release(&mut self) {
        while let Some(first) = self.pending.first_entry() {
            // `>=`: a source declaring more coverage than it has must not
            // stall the slice until the next watermark.
            let complete = first.get().coverage >= self.expected_coverage;
            if !complete && *first.key() > self.forced_up_to {
                break;
            }
            let (end_ts, done) = first.remove_entry();
            let id = self.next_id;
            self.next_id += 1;
            if let (Some(rec), Some(trace)) = (&mut self.recorder, done.trace) {
                rec.record(trace, SpanKind::MergeDone);
            }
            self.ready.push_back(SealedSlice {
                id,
                start_ts: done.start_ts,
                end_ts,
                data: done.data,
                ends: Vec::new(),
                session_gaps: Vec::new(),
                low_watermark: 0,
                low_watermark_ts: done.low_ts.min(end_ts),
                trace: done.trace,
            });
        }
    }

    /// Takes the merged slices released so far, in end-timestamp order.
    pub fn take_ready(&mut self) -> impl Iterator<Item = SealedSlice> + '_ {
        self.ready.drain(..)
    }

    /// Drains merged slices into `out`, in end-timestamp order.
    pub fn drain_ready(&mut self, out: &mut Vec<SealedSlice>) {
        out.extend(self.take_ready());
    }
}

// ---------------------------------------------------------------------
// Window assembly over merged slices, by time range.
// ---------------------------------------------------------------------

/// Assembles fixed time windows from merged slices, selecting slices by
/// time range (merged slice ids are merger-local) and deriving window
/// ends from the specs; `ends` shipped with a slice are ignored.
#[derive(Debug)]
pub struct TimeAssembler {
    queries: Vec<(QueryId, QueryInfo)>,
    store: SliceStore,
    results_emitted: u64,
    merges: u64,
    /// Provenance span recorder; `None` (the default) disables tracing.
    recorder: Option<TraceRecorder>,
}

impl TimeAssembler {
    /// Creates an assembler for the fixed time windows of `group`.
    pub fn new(group: &QueryGroup) -> Self {
        let queries = query_infos(group)
            .filter(|(_, q)| q.window.has_precomputable_puncts())
            .collect();
        Self {
            queries,
            store: SliceStore::default(),
            results_emitted: 0,
            merges: 0,
            recorder: None,
        }
    }

    /// Enables causal slice tracing: traced slices that terminate
    /// windows record `WindowAssembled`/`ResultEmitted` spans.
    pub fn set_recorder(&mut self, recorder: TraceRecorder) {
        self.recorder = Some(recorder);
    }

    /// Results emitted so far.
    pub fn results_emitted(&self) -> u64 {
        self.results_emitted
    }

    /// Slice-partial merge operations performed so far.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Slices currently retained.
    pub fn retained_slices(&self) -> usize {
        self.store.len()
    }

    /// Stops assembling windows for `query` (runtime removal, Section
    /// 3.2). Returns `false` if the query is unknown.
    pub fn remove_query(&mut self, query: QueryId) -> bool {
        let before = self.queries.len();
        self.queries.retain(|(id, _)| *id != query);
        self.queries.len() != before
    }

    /// Ingests one merged slice; assembles every window ending with it.
    pub fn on_slice(&mut self, slice: SealedSlice, out: &mut Vec<QueryResult>) {
        let low_ts = slice.low_watermark_ts;
        let slice_end = slice.end_ts;
        let before = out.len();
        self.store
            .push(slice.id, slice.start_ts, slice.end_ts, slice.data);
        let mut cache = RangeCache::default();
        for (id, q) in &self.queries {
            let Some(start) = q.window.fixed_window_ending_at(slice_end) else {
                continue;
            };
            let merged = self.store.merged_range(
                SliceRange::Span(start, slice_end),
                q.selection,
                &mut cache,
                &mut self.merges,
            );
            finalize_sorted(*id, &q.functions, merged, start, slice_end, out);
        }
        self.results_emitted += (out.len() - before) as u64;
        record_assembly(&mut self.recorder, slice.trace, &out[before..]);
        self.store.gc_span(low_ts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::OperatorSet;
    use crate::engine::{AggregationEngine, GroupSlicer, QueryAnalyzer};
    use crate::event::Event;
    use crate::query::Query;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// All eleven functions: their operator union covers both sort
    /// operators, both products and the sum-of-squares.
    pub(super) const FUNCTIONS: [AggFunction; 11] = [
        AggFunction::Sum,
        AggFunction::Count,
        AggFunction::Average,
        AggFunction::Product,
        AggFunction::GeometricMean,
        AggFunction::Min,
        AggFunction::Max,
        AggFunction::Median,
        AggFunction::Quantile(0.9),
        AggFunction::Variance,
        AggFunction::StdDev,
    ];

    fn all_operators() -> OperatorSet {
        FUNCTIONS
            .iter()
            .fold(AggFunction::Sum.operators(), |set, f| set | f.operators())
    }

    /// Runs `cases` generated cases, seeding each deterministically.
    pub(super) fn for_cases(cases: u64, mut body: impl FnMut(u64, &mut SmallRng)) {
        for case in 0..cases {
            let seed = 0xD515_1300 + case;
            body(seed, &mut SmallRng::seed_from_u64(seed));
        }
    }

    /// A sealed keyed partial over small integer values, so sums,
    /// products and squares stay exact in `f64` under any merge order.
    fn arb_keyed(rng: &mut SmallRng) -> KeyedBundles {
        let mut map = KeyedBundles::default();
        for _ in 0..rng.gen_range(0usize..5) {
            let bundle = map
                .entry(rng.gen_range(0u32..6))
                .or_insert_with(|| OperatorBundle::new(all_operators()));
            for _ in 0..rng.gen_range(1usize..4) {
                bundle.update(f64::from(rng.gen_range(1u32..5)));
            }
        }
        for bundle in map.values_mut() {
            bundle.seal();
        }
        map
    }

    fn finalized(merged: &KeyedBundles) -> Vec<QueryResult> {
        let mut out = Vec::new();
        finalize_sorted(1, &FUNCTIONS, merged, 0, 100, &mut out);
        out
    }

    fn merged_of(parts: &[&KeyedBundles]) -> KeyedBundles {
        let mut dst = KeyedBundles::default();
        for part in parts {
            merge_keyed(&mut dst, part);
        }
        dst
    }

    #[test]
    fn keyed_merge_is_commutative_and_associative() {
        for_cases(200, |seed, rng| {
            let (a, b, c) = (arb_keyed(rng), arb_keyed(rng), arb_keyed(rng));
            let reference = finalized(&merged_of(&[&a, &b, &c]));
            assert_eq!(
                finalized(&merged_of(&[&b, &a])),
                finalized(&merged_of(&[&a, &b])),
                "seed {seed:#x}: not commutative"
            );
            for order in [[&c, &b, &a], [&b, &c, &a], [&a, &c, &b]] {
                assert_eq!(finalized(&merged_of(&order)), reference, "seed {seed:#x}");
            }
            // (a ∘ b) ∘ c == a ∘ (b ∘ c), grouping made explicit.
            let bc = merged_of(&[&b, &c]);
            assert_eq!(
                finalized(&merged_of(&[&a, &bc])),
                reference,
                "seed {seed:#x}"
            );
            // `SliceData::merge` is the same algebra, one map per selection.
            let data = |maps: [&KeyedBundles; 2]| SliceData {
                per_selection: maps.into_iter().cloned().collect(),
            };
            let mut left = data([&a, &b]);
            left.merge(&data([&b, &c]));
            let mut right = data([&b, &c]);
            right.merge(&data([&a, &b]));
            assert_eq!(
                left, right,
                "seed {seed:#x}: SliceData::merge not commutative"
            );
            assert_eq!(left.per_selection[0], merged_of(&[&a, &b]));
        });
    }

    #[test]
    fn merge_keyed_counts_only_bundle_into_bundle_merges() {
        for_cases(50, |seed, rng| {
            let (a, b) = (arb_keyed(rng), arb_keyed(rng));
            let mut dst = KeyedBundles::default();
            assert_eq!(
                merge_keyed(&mut dst, &a),
                0,
                "seed {seed:#x}: clones counted"
            );
            let shared = b.keys().filter(|k| a.contains_key(k)).count() as u64;
            assert_eq!(merge_keyed(&mut dst, &b), shared, "seed {seed:#x}");
        });
    }

    #[test]
    fn a_missing_selection_is_an_empty_contribution() {
        let mut rng = SmallRng::seed_from_u64(7);
        let full = arb_keyed(&mut rng);
        let mut store = SliceStore::default();
        store.push(0, 0, 100, SliceData::new(0));
        store.push(
            1,
            100,
            200,
            SliceData {
                per_selection: vec![full.clone()],
            },
        );
        for range in [SliceRange::Ids(0, 1), SliceRange::Span(0, 200)] {
            let mut dst = KeyedBundles::default();
            assert_eq!(store.merge_range(range, 0, &mut dst), 0);
            assert_eq!(dst, full);
            let mut none = KeyedBundles::default();
            store.merge_range(range, 3, &mut none);
            assert!(none.is_empty());
        }
        // Merging a wider slice into a narrower one keeps its data.
        let mut narrow = SliceData::new(0);
        narrow.merge(&SliceData {
            per_selection: vec![full.clone()],
        });
        assert_eq!(narrow.per_selection, vec![full]);
    }

    fn leaf_slice(rng: &mut SmallRng, end_ts: Timestamp) -> SealedSlice {
        let start_ts = end_ts - 100 + rng.gen_range(0u64..3) * 10;
        SealedSlice {
            id: end_ts / 100,
            start_ts,
            end_ts,
            data: SliceData {
                per_selection: vec![arb_keyed(rng), arb_keyed(rng)],
            },
            ends: Vec::new(),
            session_gaps: Vec::new(),
            low_watermark: 0,
            low_watermark_ts: start_ts.saturating_sub(rng.gen_range(0u64..2) * 100),
            trace: None,
        }
    }

    /// What an intermediate merger would forward for these leaf slices.
    fn pre_merged(parts: &[SealedSlice]) -> SealedSlice {
        let mut merger = AlignedSliceMerger::new(parts.len() as u32);
        for part in parts {
            merger.on_slice(part.clone(), 1);
        }
        let mut out = Vec::new();
        merger.drain_ready(&mut out);
        assert_eq!(out.len(), 1);
        out.remove(0)
    }

    pub(super) fn permutations(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![Vec::new()];
        }
        let mut all = Vec::new();
        for rest in permutations(n - 1) {
            for at in 0..=rest.len() {
                let mut p = rest.clone();
                p.insert(at, n - 1);
                all.push(p);
            }
        }
        all
    }

    #[test]
    fn aligned_merger_release_is_arrival_order_and_split_independent() {
        const LEAVES: usize = 4;
        let ends: [Timestamp; 3] = [100, 200, 300];
        for_cases(8, |seed, rng| {
            // leaves[l][e]: leaf l's partial for end e.
            let leaves: Vec<Vec<SealedSlice>> = (0..LEAVES)
                .map(|_| ends.iter().map(|&e| leaf_slice(rng, e)).collect())
                .collect();
            let mut reference: Option<Vec<SealedSlice>> = None;
            for sources in [1usize, 2, 4] {
                // The same coverage split across `sources` children: each
                // stands for `per` leaves, pre-merged like an intermediate.
                let per = LEAVES / sources;
                let streams: Vec<Vec<SealedSlice>> = (0..sources)
                    .map(|s| {
                        (0..ends.len())
                            .map(|e| {
                                let parts: Vec<SealedSlice> = (s * per..(s + 1) * per)
                                    .map(|l| leaves[l][e].clone())
                                    .collect();
                                pre_merged(&parts)
                            })
                            .collect()
                    })
                    .collect();
                for order in permutations(sources) {
                    // End-major (children in lock step) and child-major
                    // (one child's whole stream first: worst-case skew).
                    for child_major in [false, true] {
                        let mut merger = AlignedSliceMerger::new(LEAVES as u32);
                        let (outer, inner) = if child_major {
                            (sources, ends.len())
                        } else {
                            (ends.len(), sources)
                        };
                        for i in 0..outer {
                            for j in 0..inner {
                                let (s, e) = if child_major {
                                    (order[i], j)
                                } else {
                                    (order[j], i)
                                };
                                merger.on_slice(streams[s][e].clone(), per as u32);
                            }
                        }
                        let mut released = Vec::new();
                        merger.drain_ready(&mut released);
                        assert_eq!(merger.pending_len(), 0, "seed {seed:#x}");
                        let got_ends: Vec<Timestamp> = released.iter().map(|s| s.end_ts).collect();
                        assert_eq!(got_ends, ends, "seed {seed:#x}: not in end order");
                        match &reference {
                            None => reference = Some(released),
                            Some(r) => assert_eq!(
                                &released, r,
                                "seed {seed:#x}: sources={sources} order={order:?} \
                                 child_major={child_major}"
                            ),
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn over_covered_end_releases_once_without_a_watermark() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut merger = AlignedSliceMerger::new(2);
        merger.on_slice(leaf_slice(&mut rng, 100), 1);
        assert_eq!(merger.take_ready().count(), 0);
        // The second child declares more coverage than the merger expects
        // in total: 1 + 2 skips over `== 2`.
        merger.on_slice(leaf_slice(&mut rng, 100), 2);
        assert_eq!(merger.take_ready().count(), 1);
        merger.advance_watermark(1_000);
        assert_eq!(merger.take_ready().count(), 0, "released twice");
        // Zero expected coverage is clamped, not a panic or a stall.
        let mut clamped = AlignedSliceMerger::new(0);
        clamped.on_slice(leaf_slice(&mut rng, 100), 1);
        assert_eq!(clamped.take_ready().count(), 1);
    }

    pub(super) fn group(queries: Vec<Query>) -> QueryGroup {
        let mut groups = QueryAnalyzer::default().analyze(queries).unwrap();
        assert_eq!(groups.len(), 1);
        groups.remove(0)
    }

    /// Runs `streams` through per-child slicers, merging through an
    /// aligned merger into a time assembler — a miniature local->root
    /// pipeline for fixed windows.
    fn run_aligned(
        queries: Vec<Query>,
        streams: Vec<Vec<Event>>,
        wm: Timestamp,
    ) -> Vec<QueryResult> {
        let g = group(queries);
        let n = streams.len() as u32;
        let mut merger = AlignedSliceMerger::new(n);
        let mut assembler = TimeAssembler::new(&g);
        let mut results = Vec::new();
        let mut slicers: Vec<GroupSlicer> = (0..n).map(|_| GroupSlicer::new(g.clone())).collect();
        let mut out = Vec::new();
        let mut ready = Vec::new();
        for (slicer, events) in slicers.iter_mut().zip(&streams) {
            for ev in events {
                slicer.on_event(ev, &mut out);
            }
            slicer.on_watermark(wm, &mut out);
            for slice in out.drain(..) {
                merger.on_slice(slice, 1);
            }
        }
        merger.advance_watermark(wm);
        merger.drain_ready(&mut ready);
        for merged in ready.drain(..) {
            assembler.on_slice(merged, &mut results);
        }
        results.sort_by_key(|r| (r.query, r.window_start, r.key));
        results
    }

    #[test]
    fn aligned_merge_matches_single_node() {
        let queries = vec![
            Query::new(
                1,
                WindowSpec::tumbling_time(100).unwrap(),
                AggFunction::Average,
            ),
            Query::new(
                2,
                WindowSpec::sliding_time(200, 100).unwrap(),
                AggFunction::Max,
            ),
        ];
        // Two streams; single-node reference merges them by time.
        let s1: Vec<Event> = (0..30).map(|i| Event::new(i * 10, 0, i as f64)).collect();
        let s2: Vec<Event> = (0..30)
            .map(|i| Event::new(i * 10 + 5, 1, (i * 2) as f64))
            .collect();
        let decentralized = run_aligned(queries.clone(), vec![s1.clone(), s2.clone()], 1_000);

        let mut all: Vec<Event> = s1.into_iter().chain(s2).collect();
        all.sort_by_key(|e| e.ts);
        let mut engine = AggregationEngine::new(queries).unwrap();
        for ev in &all {
            engine.on_event(ev);
        }
        engine.on_watermark(1_000);
        let mut reference = engine.drain_results();
        reference.sort_by_key(|r| (r.query, r.window_start, r.key));
        assert_eq!(decentralized, reference);
    }

    #[test]
    fn aligned_merge_handles_empty_streams() {
        let queries = vec![Query::new(
            1,
            WindowSpec::tumbling_time(100).unwrap(),
            AggFunction::Sum,
        )];
        // Stream 2 has events only early; its later slices are empty but
        // still delivered (watermark-driven).
        let s1: Vec<Event> = (0..50).map(|i| Event::new(i * 10, 0, 1.0)).collect();
        let s2: Vec<Event> = vec![Event::new(5, 0, 100.0)];
        let results = run_aligned(queries, vec![s1, s2], 500);
        // Window [0,100): 10 events of 1.0 + one of 100.0.
        assert_eq!(results[0].values, vec![Some(110.0)]);
        // Later windows exist (stream 1 alone).
        assert!(results.len() >= 4);
    }
}
