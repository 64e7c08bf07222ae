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
//!   [`SliceStore::merged_range`] is the one place a window's partial is
//!   put together, so its memos serve the sequential engine, the
//!   sharded collector and the cluster root alike: the answers of the
//!   current slice end, shared by every query asking the same range;
//!   two-stack suffix aggregates, kept across slice ends, that make
//!   overlapping windows over constant-size partials O(1) merges per
//!   slice end; and for sort-based partials, whose suffix aggregates
//!   are too large to keep, suffix chains within the slice end — of the
//!   windows that end together each is built from the next shorter one.
//!
//! Slices also arrive in frames from outside the process and may declare
//! fewer selections than their group has: the kernel reads selections
//! with `get`, so a missing selection is an empty contribution, never an
//! index panic.

use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;

use rustc_hash::FxHashMap;

use crate::aggregate::{AggFunction, OperatorBundle, OperatorKind};
use crate::engine::group::{QueryGroup, Selection};
use crate::engine::slice::{SealedSlice, SliceData, SliceId};
use crate::event::Key;
use crate::obs::trace::{SpanKind, TraceId, TraceRecorder};
use crate::query::{QueryId, QueryResult};
use crate::time::Timestamp;
use crate::window::{WindowKind, WindowSpec};

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
    /// Whether the selection's partials are constant-size: its operator
    /// set holds no non-decomposable sort. Decides how the selection's
    /// windows are put together ([`SliceStore::merged_range`]).
    pub constant_size: bool,
}

impl QueryInfo {
    /// Whether this query's windows assemble from its selection's
    /// [`SuffixCache`]: overlapping fixed windows (sliding, `step <
    /// length`) over constant-size partials. Suffix aggregates of
    /// sorted-value partials kept from one slice end to the next would
    /// hold O(window²) values per key, so those selections chain their
    /// windows within each slice end instead; constant-size tumbling,
    /// session and user-defined windows merge every slice once already
    /// and keep the range scan.
    fn cached(&self) -> bool {
        let overlapping =
            matches!(self.window.kind, WindowKind::Sliding { length, step } if step < length);
        overlapping && self.constant_size
    }
}

/// The member queries of `group`, in group order.
pub fn query_infos(group: &QueryGroup) -> impl Iterator<Item = (QueryId, QueryInfo)> + '_ {
    group.queries.iter().map(|cq| {
        let selection = cq.selection as usize;
        let sorts = |s: &Selection| s.operators.contains(OperatorKind::NonDecomposableSort);
        let info = QueryInfo {
            selection,
            functions: cq.query.functions.clone(),
            window: cq.query.window,
            constant_size: group.selections.get(selection).is_some_and(|s| !sorts(s)),
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
    // Bare keys are sorted and each looked up again. Re-measured under
    // the suffix caches (256 keys, four sliding queries): sorting
    // (key, &bundle) pairs instead takes 40 µs against 27 µs per slice
    // end for this loop alone, 28 against 27 inside the assembler, and
    // moves nothing end to end.
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

impl SliceRange {
    fn covers(self, stored: &StoredSlice) -> bool {
        match self {
            SliceRange::Ids(first, last) => stored.id >= first && stored.id <= last,
            SliceRange::Span(start, end) => stored.start_ts >= start && stored.end_ts <= end,
        }
    }
}

#[derive(Debug, Clone)]
struct StoredSlice {
    id: SliceId,
    start_ts: Timestamp,
    end_ts: Timestamp,
    data: SliceData,
}

/// The range scan: folds selection `sel` of the slices `range` covers —
/// the located `run`, or every slice passing the test when the store is
/// not ordered — into `dst`.
fn scan(
    slices: &VecDeque<StoredSlice>,
    run: Option<Range<usize>>,
    range: SliceRange,
    sel: usize,
    dst: &mut KeyedBundles,
) -> u64 {
    let fold = |stored: &StoredSlice| {
        let map = stored.data.per_selection.get(sel);
        map.map_or(0, |map| merge_keyed(dst, map))
    };
    match run {
        Some(run) => slices.range(run).map(fold).sum(),
        None => slices.iter().filter(|s| range.covers(s)).map(fold).sum(),
    }
}

/// Two-stack aggregate (*In-Order Sliding-Window Aggregation in
/// Worst-Case Constant Time*) over one selection's slices, built from
/// [`merge_keyed`] alone: no inverse, so no float drift and no special
/// case for Min/Max/Product. One stack serves every cached window
/// length on the selection, so it holds one window's worth of maps —
/// the longest — however many lengths share it.
///
/// Slices are named by store sequence number. `front[i]` aggregates
/// slices `mid - 1 - i .. mid`, built on demand down to the earliest
/// start asked; `back` is the running aggregate of `mid..hi`. A window
/// `a..hi` is `front[mid - a - 1] ∘ back`. The stack *flips* — `mid`
/// moves to the newest slice — at the first window of a slice end by
/// which the shortest window seen so far would start past `mid`; every
/// `front` entry is then rebuilt once, on demand, so a flip costs what
/// one [`SliceStore::merge_range`] of the longest window costs and
/// comes once per shortest window.
///
/// When it flips depends only on earlier slice ends, and an answer's
/// association only on `mid`: the order in which one slice end's
/// windows are asked changes no bit of any answer (the sequential
/// engine asks in slicer order, the collector in query order).
#[derive(Debug, Clone)]
struct SuffixCache {
    selection: usize,
    front: Vec<KeyedBundles>,
    back: KeyedBundles,
    mid: u64,
    hi: u64,
    /// Slices of the shortest window asked so far.
    shortest: u64,
}

impl SuffixCache {
    /// An empty stack flipped at `newest`, one past the newest slice.
    fn new(selection: usize, newest: u64) -> Self {
        Self {
            selection,
            front: Vec::new(),
            back: KeyedBundles::default(),
            mid: newest,
            hi: newest,
            shortest: u64::MAX,
        }
    }

    /// Merges slices `a..b` into the empty `dst`, where `b` is one past
    /// the newest slice and `slices[0]` has sequence number `base`.
    /// Returns the merges performed, or `None` for a window starting
    /// past `mid` (shorter than any before it): the caller scans, and
    /// the next slice end flips in time for it.
    fn merge_into(
        &mut self,
        slices: &VecDeque<StoredSlice>,
        base: u64,
        (a, b): (u64, u64),
        dst: &mut KeyedBundles,
    ) -> Option<u64> {
        let sel = self.selection;
        let part = |seq: u64| {
            let stored = slices.get((seq - base) as usize)?;
            stored.data.per_selection.get(sel)
        };
        let mut merges = 0;
        if self.hi < b {
            if b.saturating_sub(self.shortest) > self.mid {
                self.front.clear();
                self.back.clear();
                self.mid = b;
            } else {
                for map in (self.hi..b).filter_map(part) {
                    merges += merge_keyed(&mut self.back, map);
                }
            }
            self.hi = b;
        }
        self.shortest = self.shortest.min(b - a);
        let depth = self.mid.checked_sub(a)? as usize;
        while self.front.len() < depth {
            let mut suffix = self.front.last().cloned().unwrap_or_default();
            if let Some(map) = part(self.mid - 1 - self.front.len() as u64) {
                merges += merge_keyed(&mut suffix, map);
            }
            self.front.push(suffix);
        }
        if let Some(suffix) = depth.checked_sub(1).map(|i| &self.front[i]) {
            dst.clone_from(suffix);
        }
        Some(merges + merge_keyed(dst, &self.back))
    }

    /// Forgets slices below sequence number `low` (gc'd from the store).
    /// Returns `false` once gc reached `mid`: `back` would cover slices
    /// that are gone, and nobody asked in a window's time, so the cache
    /// is dropped.
    fn retain_from(&mut self, low: u64) -> bool {
        self.front.truncate(self.mid.saturating_sub(low) as usize);
        low < self.mid
    }

    fn bundles(&self) -> usize {
        let front: usize = self.front.iter().map(KeyedBundles::len).sum();
        front + self.back.len()
    }
}

/// One answer of the current slice end.
#[derive(Debug, Clone)]
struct Answer {
    merged: KeyedBundles,
    /// Sequence number of the first slice covered, when the answer is a
    /// link of its selection's suffix chain: the fold newest → oldest of
    /// the slices from there to the newest one.
    chained_from: Option<u64>,
}

/// Slice partials of one source, retained in arrival order until no
/// window can reference them, plus two memos over them: the answers of
/// the current slice end, and per selection with overlapping windows
/// over constant-size partials a two-stack suffix cache that survives
/// from one slice end to the next.
///
/// Retained state: the slices themselves, and per suffix cache at most
/// one keyed map per slice of the longest window asked of it plus one —
/// never more than the slices retained, so at most the order of the
/// store's own contents ([`SliceStore::cached_bundles`]). Transient
/// state: the answers of one slice end — at most (distinct window
/// lengths ending together) × (live keys) bundles per selection, suffix
/// chains included — released when the next slice is pushed or gc
/// closes the slice end, whichever comes first.
#[derive(Debug, Clone, Default)]
pub struct SliceStore {
    slices: VecDeque<StoredSlice>,
    /// Slices gc'd so far: `slices[i]` has sequence number `base + i`.
    base: u64,
    /// Sequence number of the newest slice that broke order against its
    /// predecessor (ids not consecutive, or a start or end running
    /// backwards: frames from outside the process). Ranges are located
    /// by index once that predecessor is gone.
    disorder: u64,
    /// Ranges merged since the store last changed: windows of different
    /// queries often cover the same `(selection, range)` (a thousand
    /// equal-length tumbling windows with different functions, Figure
    /// 9c), which is then merged once. For a selection with sort-based
    /// partials these answers are also its *suffix chain*: windows that
    /// end together are nested suffixes of the store, so each is built
    /// from the next shorter one already here.
    merged: FxHashMap<(usize, SliceRange), Answer>,
    caches: Vec<SuffixCache>,
    merges: u64,
    /// What a range without data for the selection borrows.
    empty: KeyedBundles,
}

impl SliceStore {
    /// Retains one slice's partials.
    pub fn push(&mut self, id: SliceId, start_ts: Timestamp, end_ts: Timestamp, data: SliceData) {
        if let Some(back) = self.slices.back() {
            let in_order = back.id.checked_add(1) == Some(id)
                && back.start_ts <= start_ts
                && back.end_ts <= end_ts;
            if !in_order {
                self.disorder = self.base + self.slices.len() as u64;
            }
        }
        self.merged.clear();
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

    /// Bundles held by the suffix caches: per selection at most (slices
    /// of its longest cached window + 1) × live keys.
    pub fn cached_bundles(&self) -> usize {
        self.caches.iter().map(SuffixCache::bundles).sum()
    }

    /// Bundle-into-bundle merges [`SliceStore::merged_range`] performed.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Indices of the slices `range` covers. Ids are consecutive and
    /// timestamps ascending within an ordered store, so the covered
    /// slices are one run found without testing each; `None` when the
    /// store is not ordered.
    fn run(&self, range: SliceRange) -> Option<Range<usize>> {
        if self.disorder > self.base {
            return None;
        }
        let len = self.slices.len();
        let (first, end) = match range {
            SliceRange::Ids(first, last) => {
                let front = self.slices.front().map_or(0, |s| s.id);
                let index = |id: SliceId| id.saturating_sub(front).min(len as u64) as usize;
                let end = if last < front { 0 } else { index(last) + 1 };
                (index(first), end.min(len))
            }
            SliceRange::Span(start, end) => (
                self.slices.partition_point(|s| s.start_ts < start),
                self.slices.partition_point(|s| s.end_ts <= end),
            ),
        };
        Some(first..end.max(first))
    }

    /// Merges selection `sel` of every retained slice in `range` into
    /// `dst`; returns the bundle-into-bundle merges performed. A slice
    /// without that selection contributes nothing. This scan is the one
    /// definition of a range's content: [`SliceStore::merged_range`]
    /// falls back to it and is tested against it.
    pub fn merge_range(&self, range: SliceRange, sel: usize, dst: &mut KeyedBundles) -> u64 {
        scan(&self.slices, self.run(range), range, sel, dst)
    }

    /// The merged partial of `query`'s selection over `range`, computed
    /// at most once per distinct range and slice end. A one-slice range
    /// borrows the stored map. A longer range that ends at the newest
    /// slice of an ordered store is put together by what its selection's
    /// partials allow:
    ///
    /// * constant-size partials ([`QueryInfo::constant_size`]) under
    ///   overlapping windows (sliding with `step < length`): the
    ///   selection's two-stack suffix cache, kept across slice ends —
    ///   O(1) amortised [`merge_keyed`] calls per window length and
    ///   slice end instead of one per covered slice;
    /// * sort-based partials: the selection's *suffix chain*. Such a
    ///   range is **defined** as the fold newest → oldest,
    ///   `((x[hi-1] ∘ x[hi-2]) ∘ …) ∘ x[a]`, so the answers of one slice
    ///   end are prefixes of one fold, and a new one starts from a clone
    ///   of the answer with the nearest later start and folds only the
    ///   older slices in. Whichever answers exist when a range is asked,
    ///   it gets the same bits; k lengths ending together cost `longest`
    ///   [`merge_keyed`] calls when asked short-first and about
    ///   `longest × H_k` in arbitrary order, against `Σ lengths` for the
    ///   scan (which only asking long-first still pays). The fold runs
    ///   towards the old end because that is the end nested suffixes
    ///   differ at, and it merges the short run of one slice into the
    ///   long run of the window so far
    ///   ([`crate::aggregate::OperatorState::merge`]). Nothing of it
    ///   outlives the slice end.
    ///
    /// Everything else — constant-size tumbling windows, unordered
    /// stores, ranges that end before the newest slice — is
    /// [`SliceStore::merge_range`]. Either way the answer is shared
    /// until the store changes or gc closes the slice end.
    pub fn merged_range(&mut self, range: SliceRange, query: &QueryInfo) -> &KeyedBundles {
        let sel = query.selection;
        let run = self.run(range);
        if let Some(run) = &run {
            if run.len() == 1 {
                let map = self.slices[run.start].data.per_selection.get(sel);
                return map.unwrap_or(&self.empty);
            }
        }
        // Looked up twice on a hit: a miss reads the other answers
        // before it inserts its own, which a held entry would forbid.
        if !self.merged.contains_key(&(sel, range)) {
            let answer = self.answer(run, range, query);
            self.merged.insert((sel, range), answer);
        }
        self.merged
            .get(&(sel, range))
            .map_or(&self.empty, |answer| &answer.merged)
    }

    /// Puts together a range no answer exists for yet.
    fn answer(&mut self, run: Option<Range<usize>>, range: SliceRange, q: &QueryInfo) -> Answer {
        let sel = q.selection;
        let suffix = run
            .clone()
            .filter(|run| run.len() > 1 && run.end == self.slices.len());
        if let (Some(run), false) = (&suffix, q.constant_size) {
            return self.chained(run.clone(), sel);
        }
        let mut merged = KeyedBundles::default();
        let cached = suffix.filter(|_| q.cached()).and_then(|run| {
            let seqs = (self.base + run.start as u64, self.base + run.end as u64);
            let at = self.caches.iter().position(|c| c.selection == sel);
            let at = at.unwrap_or_else(|| {
                self.caches.push(SuffixCache::new(sel, seqs.1));
                self.caches.len() - 1
            });
            self.caches[at].merge_into(&self.slices, self.base, seqs, &mut merged)
        });
        self.merges += match cached {
            Some(merges) => merges,
            None => scan(&self.slices, run, range, sel, &mut merged),
        };
        Answer {
            merged,
            chained_from: None,
        }
    }

    /// The next link of selection `sel`'s suffix chain: the slices `run`
    /// (which ends at the newest) folded newest → oldest, starting from
    /// the link with the nearest later start if there is one.
    fn chained(&mut self, run: Range<usize>, sel: usize) -> Answer {
        let from = self.base + run.start as u64;
        let links = self.merged.iter().filter(|((s, _), _)| *s == sel);
        let nearest = links
            .filter_map(|(_, link)| Some((link.chained_from.filter(|s| *s > from)?, &link.merged)))
            .min_by_key(|(start, _)| *start);
        let (mut merged, older) = match nearest {
            Some((start, link)) => (link.clone(), run.start..(start - self.base) as usize),
            None => (KeyedBundles::default(), run),
        };
        let parts = self.slices.range(older).rev();
        for map in parts.filter_map(|stored| stored.data.per_selection.get(sel)) {
            self.merges += merge_keyed(&mut merged, map);
        }
        Answer {
            merged,
            chained_from: Some(from),
        }
    }

    /// Drops the suffix cache a removed member query read, so a stack
    /// built for its windows does not outlive it; the selection's next
    /// overlapping window starts a new one at the cost of one range scan.
    pub fn query_removed(&mut self, query: &QueryInfo) {
        if query.cached() {
            self.caches.retain(|c| c.selection != query.selection);
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
        // gc closes a slice end: its merged ranges are released while
        // their memory is still warm, not when the next slice arrives.
        self.merged.clear();
        let before = self.base;
        while self.slices.front().is_some_and(&dead) {
            self.slices.pop_front();
            self.base += 1;
        }
        if self.base != before {
            let low = self.base;
            self.caches.retain_mut(|cache| cache.retain_from(low));
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

/// The retirement rule (runtime removal, paper Section 3.2): the end of
/// the last window of `window` that still emits once its query is removed
/// at event time `at` — a pure function of the two. Immediate removal
/// keeps the windows that ended at or before `at`; a draining one also
/// those that had started by then; nothing later. `0` when no window
/// qualifies (none ends there), `Timestamp::MAX` when the last one's end
/// is not representable (it never fires). A slicer removing the query
/// while its stream stands at `at` emits exactly these windows, so a
/// [`TimeAssembler`], which derives window ends itself, reads the same
/// answer off the slice stream.
pub fn last_window_end(window: &WindowSpec, at: Timestamp, immediate: bool) -> Timestamp {
    let (length, step) = match window.kind {
        WindowKind::Tumbling { length } => (length, length),
        WindowKind::Sliding { length, step } => (length, step),
        // Data-driven windows end where their sources say.
        WindowKind::Session { .. } | WindowKind::UserDefined { .. } => return Timestamp::MAX,
    };
    // Windows are `[k * step, k * step + length)`.
    let last_start = if immediate {
        let Some(room) = at.checked_sub(length) else {
            return 0;
        };
        room / step * step
    } else {
        at / step * step
    };
    last_start.checked_add(length).unwrap_or(Timestamp::MAX)
}

/// Assembles fixed time windows from merged slices, selecting slices by
/// time range (merged slice ids are merger-local) and deriving window
/// ends from the specs; `ends` shipped with a slice are ignored.
#[derive(Debug)]
pub struct TimeAssembler {
    queries: Vec<Member>,
    store: SliceStore,
    results_emitted: u64,
    /// Provenance span recorder; `None` (the default) disables tracing.
    recorder: Option<TraceRecorder>,
}

/// A member query and, once it is removed, the end of its last window
/// that emits.
#[derive(Debug)]
struct Member {
    id: QueryId,
    info: QueryInfo,
    last_end: Option<Timestamp>,
}

impl TimeAssembler {
    /// Creates an assembler for the fixed time windows of `group`.
    pub fn new(group: &QueryGroup) -> Self {
        let queries = query_infos(group)
            .filter(|(_, q)| q.window.has_precomputable_puncts())
            .map(|(id, info)| Member {
                id,
                info,
                last_end: None,
            })
            .collect();
        Self {
            queries,
            store: SliceStore::default(),
            results_emitted: 0,
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
        self.store.merges()
    }

    /// Slices currently retained.
    pub fn retained_slices(&self) -> usize {
        self.store.len()
    }

    /// Bundles held by the store's suffix caches
    /// ([`SliceStore::cached_bundles`]).
    pub fn cached_bundles(&self) -> usize {
        self.store.cached_bundles()
    }

    /// Retires `query`, removed at event time `at` (runtime removal,
    /// Section 3.2): its windows up to [`last_window_end`] still assemble
    /// as their slices arrive — slices in flight when the removal is
    /// announced included, so no barrier is needed and the call may come
    /// any time before the slice stream passes `at`, more than once —
    /// and the query is dropped with the first slice at or past that end.
    /// Returns `false` if the query is unknown.
    pub fn remove_query(&mut self, query: QueryId, at: Timestamp, immediate: bool) -> bool {
        let Some(member) = self.queries.iter_mut().find(|m| m.id == query) else {
            return false;
        };
        member.last_end = Some(last_window_end(&member.info.window, at, immediate));
        true
    }

    /// Ingests one merged slice; assembles every window ending with it.
    pub fn on_slice(&mut self, slice: SealedSlice, out: &mut Vec<QueryResult>) {
        let low_ts = slice.low_watermark_ts;
        let slice_end = slice.end_ts;
        let before = out.len();
        self.store
            .push(slice.id, slice.start_ts, slice.end_ts, slice.data);
        for Member { id, info, last_end } in &self.queries {
            let Some(start) = info.window.fixed_window_ending_at(slice_end) else {
                continue;
            };
            if last_end.is_some_and(|last| slice_end > last) {
                continue;
            }
            let merged = self
                .store
                .merged_range(SliceRange::Span(start, slice_end), info);
            finalize_sorted(*id, &info.functions, merged, start, slice_end, out);
        }
        self.results_emitted += (out.len() - before) as u64;
        record_assembly(&mut self.recorder, slice.trace, &out[before..]);
        let store = &mut self.store;
        self.queries.retain(|m| {
            let gone = m.last_end.is_some_and(|last| last <= slice_end);
            if gone {
                store.query_removed(&m.info);
            }
            !gone
        });
        store.gc_span(low_ts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::OperatorSet;
    use crate::engine::slice::WindowEnd;
    use crate::engine::{AggregationEngine, Assembler, GroupSlicer, QueryAnalyzer};
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
        arb_keyed_of(rng, all_operators(), |rng| {
            f64::from(rng.gen_range(1u32..5))
        })
    }

    fn arb_keyed_of(
        rng: &mut SmallRng,
        operators: OperatorSet,
        value: impl Fn(&mut SmallRng) -> f64,
    ) -> KeyedBundles {
        let mut map = KeyedBundles::default();
        for _ in 0..rng.gen_range(0usize..5) {
            let bundle = map
                .entry(rng.gen_range(0u32..6))
                .or_insert_with(|| OperatorBundle::new(operators));
            for _ in 0..rng.gen_range(1usize..4) {
                bundle.update(value(rng));
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

    // -----------------------------------------------------------------
    // Suffix caches: cached ≡ range scan.
    // -----------------------------------------------------------------

    /// The nine functions whose partials are constant-size.
    pub(super) fn constant_size_functions() -> Vec<AggFunction> {
        let sorted = |f: &AggFunction| matches!(f, AggFunction::Median | AggFunction::Quantile(_));
        FUNCTIONS.into_iter().filter(|f| !sorted(f)).collect()
    }

    /// Slice width of the store-level streams, in event time.
    const TICK: u64 = 100;
    /// Keys [`arb_keyed_of`] draws from.
    const KEYS: usize = 6;

    /// A query over `selection` whose windows span `length` slices of
    /// [`TICK`] and start every `step`.
    fn windowed(selection: usize, length: u64, step: u64, constant_size: bool) -> QueryInfo {
        QueryInfo {
            selection,
            functions: Vec::new(),
            window: WindowSpec::sliding_time(length * TICK, step * TICK).unwrap(),
            constant_size,
        }
    }

    /// Checks the located scan and the memoized answer against the
    /// definition of a range — [`scan`] testing every retained slice.
    fn assert_range(
        store: &mut SliceStore,
        range: SliceRange,
        q: &QueryInfo,
        context: &str,
    ) -> bool {
        let mut want = KeyedBundles::default();
        scan(&store.slices, None, range, q.selection, &mut want);
        let mut located = KeyedBundles::default();
        store.merge_range(range, q.selection, &mut located);
        assert_eq!(located, want, "{context}: scan of {range:?}");
        assert_eq!(
            store.merged_range(range, q),
            &want,
            "{context}: cached {range:?}"
        );
        // Asked again within the slice end, the answer is shared.
        let merges = store.merges();
        assert_eq!(store.merged_range(range, q), &want, "{context}: again");
        assert_eq!(store.merges(), merges, "{context}: {range:?} merged twice");
        // Only a suffix of an ordered store is a link of a chain: an
        // unordered store (id gap, straggler) and a range that ends
        // before the newest slice still scan. Returns whether it is.
        let suffix = store
            .run(range)
            .is_some_and(|run| run.len() > 1 && run.end == store.len());
        let answer = store.merged.get(&(q.selection, range));
        let chained = answer.is_some_and(|a| a.chained_from.is_some());
        assert_eq!(chained, suffix && !q.constant_size, "{context}: {range:?}");
        chained
    }

    /// Random walk over everything a store can be asked: windows of
    /// several lengths and steps on three selections by id and by span —
    /// the third with sort-based partials under sliding and tumbling
    /// windows whose lengths nest — empty slices, slices missing a
    /// selection, id gaps and timestamps running backwards, ranges that
    /// do not end at the newest slice or start before the last one did,
    /// queries that pause and resume mid-window, and gc at, behind and
    /// past the cache fronts. Values are powers of two, so every sum,
    /// product and square is exact and answers must equal the
    /// every-slice scan bit for bit.
    fn cached_ranges_equal_the_scan(cases: u64) {
        // (selection, slices per window, slices per step, constant-size)
        let specs = [
            (0, 2, 1, true),
            (0, 8, 1, true),
            (0, 20, 1, true),
            (0, 32, 2, true),
            (1, 17, 3, true),
            (1, 32, 1, true),
            // Windows that do not overlap scan.
            (0, 3, 3, true),
            // Sort-based partials chain: lengths that nest, sliding ...
            (2, 2, 1, false),
            (2, 3, 1, false),
            (2, 8, 1, false),
            (2, 17, 3, false),
            (2, 32, 1, false),
            // ... and tumbling.
            (2, 2, 2, false),
            (2, 3, 3, false),
            (2, 8, 8, false),
            (2, 17, 17, false),
            (2, 32, 32, false),
        ];
        let queries =
            specs.map(|(sel, length, step, constant)| windowed(sel, length, step, constant));
        let longest = 32;
        // Per constant-size selection at most one keyed map per slice of
        // the deepest range asked (the longest window, started two
        // slices early) plus the back aggregate; chains keep nothing.
        let bound = 2 * (longest + 2 + 1) * KEYS as u64;
        let scalars = constant_size_functions()
            .iter()
            .fold(OperatorSet::EMPTY, |set, f| set | f.operators());
        let operators = [scalars, scalars, all_operators().subsume_sorts()];
        let (mut cached_answers, mut chained_answers) = (0, 0);
        for_cases(cases, |seed, rng| {
            let mut store = SliceStore::default();
            let mut live = [true; 17];
            let mut id = rng.gen_range(0u64..3);
            for tick in 0..rng.gen_range(50u64..200) {
                let context = format!("seed {seed:#x} tick {tick}");
                let (start_ts, end_ts) = (tick * TICK, (tick + 1) * TICK);
                let data = match rng.gen_range(0u32..12) {
                    0 => SliceData::new(3),
                    1 => SliceData::new(rng.gen_range(0usize..3)),
                    _ => SliceData {
                        per_selection: operators
                            .iter()
                            .map(|operators| {
                                arb_keyed_of(rng, *operators, |rng| {
                                    [0.5, 1.0, 2.0, 4.0][rng.gen_range(0usize..4)]
                                })
                            })
                            .collect(),
                    },
                };
                match rng.gen_range(0u32..40) {
                    0 => id += 2,
                    // A straggler: its span lies before its predecessor's.
                    1 => {
                        store.push(
                            id,
                            start_ts.saturating_sub(3 * TICK),
                            start_ts,
                            data.clone(),
                        );
                        id += 1;
                    }
                    _ => {}
                }
                store.push(id, start_ts, end_ts, data);
                let newest = id;
                id += 1;
                for (q, live) in queries.iter().zip(&mut live) {
                    if rng.gen_range(0u32..25) == 0 {
                        *live = !*live;
                    }
                    let Some(start) = q.window.fixed_window_ending_at(end_ts) else {
                        continue;
                    };
                    if !*live {
                        continue;
                    }
                    let slices = (end_ts - start) / TICK;
                    let by_id = rng.gen_bool(0.5);
                    let range = |shift_start: u64, shift_end: u64| {
                        if by_id {
                            let first = (newest + 1).saturating_sub(slices + shift_start);
                            SliceRange::Ids(first, newest - shift_end.min(newest))
                        } else {
                            let start = start.saturating_sub(shift_start * TICK);
                            SliceRange::Span(start, end_ts - shift_end * TICK)
                        }
                    };
                    let before = store.cached_bundles();
                    let chained = assert_range(&mut store, range(0, 0), q, &context);
                    cached_answers += u64::from(store.cached_bundles() != before);
                    chained_answers += u64::from(chained);
                    match rng.gen_range(0u32..30) {
                        0 => assert_range(&mut store, range(1, 1), q, &context),
                        1 => assert_range(&mut store, range(2, 0), q, &context),
                        _ => false,
                    };
                }
                assert!(
                    store.cached_bundles() as u64 <= bound,
                    "{context}: {} bundles cached",
                    store.cached_bundles()
                );
                let keep = match rng.gen_range(0u32..10) {
                    0 => rng.gen_range(0..longest),
                    1 => longest + 3,
                    _ => longest,
                };
                if rng.gen_bool(0.5) {
                    store.gc_ids((newest + 1).saturating_sub(keep));
                } else {
                    store.gc_span(end_ts.saturating_sub(keep * TICK));
                }
            }
        });
        assert!(cached_answers > cases, "the caches answered nothing");
        assert!(chained_answers > cases, "the chains answered nothing");
    }

    #[test]
    fn cached_ranges_equal_the_scan_on_seeded_walks() {
        cached_ranges_equal_the_scan(60);
    }

    #[test]
    #[ignore = "larger case count: run in release (ci.yml)"]
    fn cached_ranges_equal_the_scan_at_length() {
        cached_ranges_equal_the_scan(4_000);
    }

    /// The sequential engine asks a slice end's windows in slicer order,
    /// a collector in query order: with values whose sums round, the
    /// answers must still be the same bits, or sharded results would
    /// drift from sequential ones. Selection 0 holds constant-size
    /// partials (suffix cache), selection 1 sort-based ones beside a sum
    /// and a variance (suffix chain: whichever link a range starts from
    /// must not show in its sum).
    #[test]
    fn answers_do_not_depend_on_the_order_windows_are_asked_in() {
        let scalars = AggFunction::Sum.operators() | AggFunction::Variance.operators();
        let operators = [scalars, scalars | AggFunction::Median.operators()];
        // Lengths and steps in slices; a window ends when its step does.
        let queries = [
            (0, 2, 1),
            (0, 5, 2),
            (0, 12, 1),
            (0, 30, 7),
            (0, 40, 1),
            (1, 2, 1),
            (1, 3, 3),
            (1, 8, 2),
            (1, 17, 1),
            (1, 32, 8),
            (1, 40, 1),
        ]
        .map(|(sel, length, step)| (windowed(sel, length, step, sel == 0), step));
        for_cases(20, |seed, rng| {
            let mut stores = [(); 3].map(|()| SliceStore::default());
            let mut newcomer = rng.gen_range(0usize..queries.len());
            for tick in 0..300u64 {
                let data = SliceData {
                    per_selection: operators
                        .iter()
                        .map(|set| arb_keyed_of(rng, *set, |rng| rng.gen_range(-9.9f64..9.9)))
                        .collect(),
                };
                // One query joins late: a window shorter than any before.
                if tick == 100 {
                    newcomer = queries.len();
                }
                let end_ts = (tick + 1) * TICK;
                let ending: Vec<(&QueryInfo, SliceRange)> = queries
                    .iter()
                    .enumerate()
                    .filter(|(at, (_, step))| *at != newcomer && (tick + 1) % step == 0)
                    .filter_map(|(_, (q, _))| {
                        let start = q.window.fixed_window_ending_at(end_ts)?;
                        Some((q, SliceRange::Span(start, end_ts)))
                    })
                    .collect();
                // Forward, backward and shuffled.
                let forward: Vec<usize> = (0..ending.len()).collect();
                let mut shuffled = forward.clone();
                for i in (1..shuffled.len()).rev() {
                    shuffled.swap(i, rng.gen_range(0..=i));
                }
                let orders = [
                    forward.clone(),
                    forward.into_iter().rev().collect(),
                    shuffled,
                ];
                let mut answers = Vec::new();
                for (store, order) in stores.iter_mut().zip(&orders) {
                    store.push(tick, tick * TICK, end_ts, data.clone());
                    let mut asked = vec![KeyedBundles::default(); ending.len()];
                    for &at in order {
                        let (q, range) = ending[at];
                        asked[at].clone_from(store.merged_range(range, q));
                    }
                    answers.push(asked);
                    store.gc_span(end_ts.saturating_sub(40 * TICK));
                }
                for (asked, order) in answers.iter().zip(&orders) {
                    assert_eq!(
                        asked, &answers[0],
                        "seed {seed:#x} tick {tick} asked in order {order:?}"
                    );
                }
            }
        });
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
                finalize_sorted(
                    end.query,
                    &q.functions,
                    &merged,
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

    /// Seeded streams through the slicer into [`Assembler`] and — merged
    /// like a collector would — into [`TimeAssembler`], against the scan:
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
            // only the group without them is also assembled by span.
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

                    let mut assembler = Assembler::new(&g);
                    let mut merger = AlignedSliceMerger::new(1);
                    let mut by_span = TimeAssembler::new(&g);
                    let (mut got, mut got_by_span) = (Vec::new(), Vec::new());
                    for (at, slice) in slices.iter().enumerate() {
                        if at == removed_at {
                            assert!(by_span.remove_query(3, slices[at - 1].end_ts, true));
                        }
                        // A slicer that removed the query stops ending
                        // its windows.
                        let mut sliced = slice.clone();
                        sliced.ends.retain(|end| !skip(at, end.query));
                        assembler.on_slice(sliced, &mut got);
                        merger.on_slice(slice.clone(), 1);
                        for merged in merger.take_ready() {
                            by_span.on_slice(merged, &mut got_by_span);
                        }
                        let cached = assembler.cached_bundles() + by_span.cached_bundles();
                        most_cached = most_cached.max(cached);
                    }
                    crate::query::sort_results(&mut got);
                    assert_eq!(got, want, "{context}");
                    if sorts {
                        let merges = assembler.merges();
                        assert!(merges < scan_merges, "{context}: {merges} merges");
                    }
                    if !counted {
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
        let mut by_id = Assembler::new(&g);
        let mut by_span = TimeAssembler::new(&g);
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
                (by_id.store(), by_id.cached_bundles()),
                (&by_span.store, by_span.cached_bundles()),
            ] {
                let retained = store.len() as u64;
                assert!(retained <= longest, "slice {i}: {retained} retained");
                assert!(store.merged.is_empty(), "slice {i}: answers outlive it");
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
