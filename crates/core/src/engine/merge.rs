//! One merge tree: a shard is a child (paper Sections 4.3 and 5.1.1).
//!
//! "Slice once, merge per-slice partials up a tree" — each half of that
//! idea is implemented here once and used at every level of the tree:
//!
//! * [`AlignedSliceMerger`] — fixed time windows punctuate at the same
//!   instants on every source, so partials merge by slice **end**. The
//!   sharded collector runs it with coverage 1 per shard; intermediate
//!   and root nodes with the coverage each child frame declares.
//!   An aligned group holds only queries with precomputable
//!   punctuations (session/user-defined groups go to [`UnfixedMerger`],
//!   count windows are replayed or processed raw), so its assembler
//!   derives window ends from the specs ([`crate::engine::Assembler`]):
//!   merged slices carry data only and local nodes strip `ends` before
//!   shipping.
//! * [`UnfixedMerger`] — session and user-defined windows end at
//!   data-driven points that differ per source, so partials merge per
//!   *window*: span-overlap session absorption gated by per-source clear
//!   frontiers, k-th-partial queues for marker-delimited windows. The
//!   sharded collector runs it over shard indices, the root over the
//!   `NodeId`s of its local streams.
//! * the slice-store kernel — [`SliceStore`], [`merge_keyed`],
//!   [`finalize_sorted`], [`record_assembly`] — which the assembler and
//!   every merger in the workspace call instead of carrying their own
//!   range scan, per-key merge, sorted emission or front-gc loop.
//!   [`SliceStore::merged_range`] is the one place a window's partial is
//!   put together, so its memos serve the sequential engine, the
//!   sharded collector and the cluster root alike: the answers of the
//!   current slice end, shared by every query asking the same range;
//!   two-stack suffix aggregates, kept across slice ends, that make
//!   overlapping windows over constant-size partials O(1) merges per
//!   slice end; and for sort-based partials, whose suffix aggregates
//!   are too large to keep, one open fold per selection within the
//!   slice end — the windows that end together, asked short-first, are
//!   one map folded towards the old end in place, none cloned. Every
//!   answer comes with its keys sorted once ([`RangeAnswer`]), so no
//!   window sorts its keys again in [`finalize_sorted`].
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

/// A window's merged partial as [`SliceStore::merged_range`] hands it
/// out: the per-key bundles and their keys in ascending order, sorted
/// once per answer however many windows read it.
#[derive(Debug, Clone, Copy)]
pub struct RangeAnswer<'a> {
    /// Per-key merged partials of the range.
    pub bundles: &'a KeyedBundles,
    /// The keys of `bundles`, ascending.
    pub keys: &'a [Key],
}

/// `map`'s keys in ascending order, re-sorted into `keys` only when `map`
/// holds keys the list lacks. Answers only ever gain keys, so a length
/// that differs is a list that is stale.
fn sorted_keys<'a>(map: &KeyedBundles, keys: &'a mut Vec<Key>) -> &'a [Key] {
    if keys.len() != map.len() {
        keys.clear();
        keys.extend(map.keys().copied());
        keys.sort_unstable();
    }
    keys
}

/// Finalizes `functions` for every key of `merged`, emitting in ascending
/// key order so output is hash-order-free even before any canonical sort.
/// The order is the answer's own key list: a slice end's windows that
/// read one answer share one sort, and nothing here sorts per window.
pub fn finalize_sorted(
    query: QueryId,
    functions: &[AggFunction],
    merged: RangeAnswer<'_>,
    start_ts: Timestamp,
    end_ts: Timestamp,
    out: &mut Vec<QueryResult>,
) {
    out.reserve(merged.keys.len());
    for &key in merged.keys {
        let bundle = &merged.bundles[&key];
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
    /// Per selection, the keys of its map in ascending order: sorted the
    /// first time a one-slice range borrows the map, empty until then.
    keys: Vec<Vec<Key>>,
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

/// Folds selection `sel` of the slices at `older` into `dst` newest →
/// oldest: a link of a suffix chain grown towards the old end.
fn fold_back(
    slices: &VecDeque<StoredSlice>,
    older: Range<usize>,
    sel: usize,
    dst: &mut KeyedBundles,
) -> u64 {
    let parts = slices.range(older).rev();
    parts
        .filter_map(|stored| stored.data.per_selection.get(sel))
        .map(|map| merge_keyed(dst, map))
        .sum()
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
/// windows are asked changes no bit of any answer (both assemblers ask
/// short-first, for the suffix chains' sake).
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
#[derive(Debug, Clone, Default)]
struct Answer {
    merged: KeyedBundles,
    /// `merged`'s keys, ascending: sorted on the first keyed ask
    /// ([`sorted_keys`]), and again only if the answer gained keys since.
    keys: Vec<Key>,
    /// Sequence number of the first slice covered, when the answer is a
    /// link of its selection's suffix chain: the fold newest → oldest of
    /// the slices from there to the newest one.
    chained_from: Option<u64>,
}

impl Answer {
    /// The answer and its key list, sorted if it is stale.
    fn keyed(&mut self) -> RangeAnswer<'_> {
        RangeAnswer {
            keys: sorted_keys(&self.merged, &mut self.keys),
            bundles: &self.merged,
        }
    }
}

/// The open fold of one sort-based selection at the current slice end:
/// an [`Answer`] whose `chained_from` is `Some`, folded further towards
/// the old end in place each time a longer suffix is asked.
#[derive(Debug, Clone)]
struct Fold {
    selection: usize,
    link: Answer,
}

/// Where [`SliceStore::locate`] found a range's answer.
enum Found {
    /// The one slice at this index: its map is borrowed.
    Slice(usize),
    /// The open fold at this index of `folds`.
    Fold(usize),
    /// The memo entry of the range.
    Memo,
}

/// Slice partials of one source, retained in arrival order until no
/// window can reference them, plus memos over them: the answers of the
/// current slice end, per selection with sort-based partials one open
/// fold of the current slice end, and per selection with overlapping
/// windows over constant-size partials a two-stack suffix cache that
/// survives from one slice end to the next.
///
/// Retained state: the slices themselves (with each selection's sorted
/// key list once a one-slice range read it), and per suffix cache at
/// most one keyed map per slice of the longest window asked of it plus
/// one — never more than the slices retained, so at most the order of
/// the store's own contents ([`SliceStore::cached_bundles`]). Transient
/// state: the answers of one slice end — per selection with sort-based
/// partials one fold of at most (live keys) bundles when its windows are
/// asked short-first (each shorter range asked after a longer one adds
/// a chain link of as many), otherwise at most (distinct window lengths
/// ending together) × (live keys) bundles per selection — released when
/// the next slice is pushed or gc closes the slice end, whichever comes
/// first.
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
    /// partials a suffix range asked after a longer one is a link of its
    /// *suffix chain*, built from the nearest later-starting link here.
    merged: FxHashMap<(usize, SliceRange), Answer>,
    /// The open folds of the current slice end, one per sort-based
    /// selection: windows that end together are nested suffixes of the
    /// store, so asked short-first each is the last one folded further.
    folds: Vec<Fold>,
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
        self.folds.clear();
        self.slices.push_back(StoredSlice {
            id,
            start_ts,
            end_ts,
            data,
            keys: Vec::new(),
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

    /// Bundles held by the answers of the current slice end, open folds
    /// included: the transient state bounded in the type's docs.
    #[cfg(test)]
    fn transient_bundles(&self) -> usize {
        let memo: usize = self.merged.values().map(|a| a.merged.len()).sum();
        let folds: usize = self.folds.iter().map(|f| f.link.merged.len()).sum();
        memo + folds
    }

    /// Answers held for the current slice end, open folds included.
    #[cfg(test)]
    pub(super) fn held_answers(&self) -> usize {
        self.merged.len() + self.folds.len()
    }

    /// Whether the answer of `range` on selection `sel` is a link of the
    /// selection's suffix chain: its open fold standing at the range's
    /// start, or a chain link in the memo.
    #[cfg(test)]
    fn served_by_chain(&self, sel: usize, range: SliceRange) -> bool {
        if let Some(answer) = self.merged.get(&(sel, range)) {
            return answer.chained_from.is_some();
        }
        let suffix = |run: &Range<usize>| run.len() > 1 && run.end == self.slices.len();
        let Some(run) = self.run(range).filter(suffix) else {
            return false;
        };
        let from = self.base + run.start as u64;
        let fold = self.folds.iter().find(|f| f.selection == sel);
        fold.is_some_and(|f| f.link.chained_from == Some(from))
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

    /// The merged partial of `query`'s selection over `range` and its
    /// keys in ascending order, each computed at most once per distinct
    /// range and slice end. A one-slice range borrows the stored map
    /// (its key list is sorted on the first ask and kept with the
    /// slice). A longer range that ends at the newest slice of an
    /// ordered store is put together by what its selection's partials
    /// allow:
    ///
    /// * constant-size partials ([`QueryInfo::constant_size`]) under
    ///   overlapping windows (sliding with `step < length`): the
    ///   selection's two-stack suffix cache, kept across slice ends —
    ///   O(1) amortised [`merge_keyed`] calls per window length and
    ///   slice end instead of one per covered slice;
    /// * sort-based partials: the selection's *open fold*. Such a range
    ///   is **defined** as the fold newest → oldest,
    ///   `((x[hi-1] ∘ x[hi-2]) ∘ …) ∘ x[a]`, so the answers of one slice
    ///   end are prefixes of one fold. A range starting at or before the
    ///   fold's oldest slice folds the slices in between into it in
    ///   place — no map is cloned — and is read off it; the fold's key
    ///   list is re-sorted only when that added keys. A range starting
    ///   later, asked after a longer one, is a link of the *suffix
    ///   chain*: it starts from a clone of the memoized link with the
    ///   nearest later start, if any, and folds only the older slices
    ///   in. Whichever answers exist when a range is asked, it gets the
    ///   same bits; k lengths ending together cost `longest`
    ///   [`merge_keyed`] calls and no clone when asked short-first — as
    ///   [`crate::engine::Assembler`] and [`UnfixedMerger`] ask them —
    ///   and about `longest × H_k` in
    ///   arbitrary order, against `Σ lengths` for the scan. The fold
    ///   runs towards the old end because that is the end nested
    ///   suffixes differ at, and it merges the short run of one slice
    ///   into the long run of the window so far
    ///   ([`crate::aggregate::OperatorBundle::merge`]). Nothing of it
    ///   outlives the slice end.
    ///
    /// Everything else — constant-size tumbling windows, unordered
    /// stores, ranges that end before the newest slice — is
    /// [`SliceStore::merge_range`]. Either way the answer is shared
    /// until the store changes or gc closes the slice end.
    pub fn merged_range(&mut self, range: SliceRange, query: &QueryInfo) -> RangeAnswer<'_> {
        let sel = query.selection;
        let found = self.locate(range, query);
        let empty = RangeAnswer {
            bundles: &self.empty,
            keys: &[],
        };
        match found {
            Found::Slice(at) => {
                let StoredSlice { data, keys, .. } = &mut self.slices[at];
                let Some(map) = data.per_selection.get(sel) else {
                    return empty;
                };
                if keys.len() <= sel {
                    keys.resize_with(sel + 1, Vec::new);
                }
                RangeAnswer {
                    keys: sorted_keys(map, &mut keys[sel]),
                    bundles: map,
                }
            }
            Found::Fold(at) => self.folds[at].link.keyed(),
            Found::Memo => self
                .merged
                .get_mut(&(sel, range))
                .map_or(empty, Answer::keyed),
        }
    }

    /// [`SliceStore::merged_range`] without the key list, for callers
    /// that merge the answer on instead of finalizing it.
    pub fn merged_bundles(&mut self, range: SliceRange, query: &QueryInfo) -> &KeyedBundles {
        let sel = query.selection;
        let map = match self.locate(range, query) {
            Found::Slice(at) => self.slices[at].data.per_selection.get(sel),
            Found::Fold(at) => Some(&self.folds[at].link.merged),
            Found::Memo => self.merged.get(&(sel, range)).map(|a| &a.merged),
        };
        map.unwrap_or(&self.empty)
    }

    /// Puts together the answer of `range`, unless it exists already,
    /// and says where it is.
    fn locate(&mut self, range: SliceRange, query: &QueryInfo) -> Found {
        let sel = query.selection;
        let run = self.run(range);
        if let Some(run) = &run {
            if run.len() == 1 {
                return Found::Slice(run.start);
            }
            let suffix = run.len() > 1 && run.end == self.slices.len();
            if suffix && !query.constant_size {
                let from = self.base + run.start as u64;
                if let Some(at) = self.fold(sel, from) {
                    return Found::Fold(at);
                }
            }
        }
        if !self.merged.contains_key(&(sel, range)) {
            let answer = self.answer(run, range, query);
            self.merged.insert((sel, range), answer);
        }
        Found::Memo
    }

    /// Folds selection `sel`'s slices from sequence number `from` up to
    /// the newest into the selection's open fold, opening it if there is
    /// none, and returns its index — or `None` when the fold already
    /// reaches past `from` (a shorter range asked after a longer one).
    fn fold(&mut self, sel: usize, from: u64) -> Option<usize> {
        let at = match self.folds.iter().position(|f| f.selection == sel) {
            Some(at) => at,
            None => {
                let newest = self.base + self.slices.len() as u64;
                let link = Answer {
                    chained_from: Some(newest),
                    ..Answer::default()
                };
                self.folds.push(Fold {
                    selection: sel,
                    link,
                });
                self.folds.len() - 1
            }
        };
        let link = &mut self.folds[at].link;
        let reached = link.chained_from.filter(|reached| from <= *reached)?;
        let older = (from - self.base) as usize..(reached - self.base) as usize;
        self.merges += fold_back(&self.slices, older, sel, &mut link.merged);
        link.chained_from = Some(from);
        Some(at)
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
            ..Answer::default()
        }
    }

    /// The next link of selection `sel`'s suffix chain: the slices `run`
    /// (which ends at the newest) folded newest → oldest, starting from
    /// a clone of the memoized link with the nearest later start if there
    /// is one. Only a range asked after its selection's open fold passed
    /// its start gets here, so the fold is never that link.
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
        self.merges += fold_back(&self.slices, older, sel, &mut merged);
        Answer {
            merged,
            chained_from: Some(from),
            ..Answer::default()
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
        self.folds.clear();
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
/// The merged slice carries data only: an aligned group's assembler
/// derives window ends itself and aligned groups have no session gaps.
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
// Runtime removal.
// ---------------------------------------------------------------------

/// The retirement rule (runtime removal, paper Section 3.2): the end of
/// the last window of `window` that still emits once its query is removed
/// at event time `at` — a pure function of the two. Immediate removal
/// keeps the windows that ended at or before `at`; a draining one also
/// those that had started by then; nothing later. `0` when no window
/// qualifies (none ends there), `Timestamp::MAX` when the last one's end
/// is not representable (it never fires). A slicer removing the query
/// while its stream stands at `at` emits exactly these windows, so an
/// assembler that derives window ends itself
/// ([`crate::engine::Assembler::remove_query`]) reads the same answer off
/// the slice stream.
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

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::aggregate::OperatorSet;
    use crate::engine::{AggregationEngine, Assembler, GroupSlicer, QueryAnalyzer};
    use crate::event::Event;
    use crate::query::Query;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// All eleven functions: their operator union covers both sort
    /// operators, both products and the sum-of-squares.
    pub(crate) const FUNCTIONS: [AggFunction; 11] = [
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
    pub(crate) fn for_cases(cases: u64, mut body: impl FnMut(u64, &mut SmallRng)) {
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

    /// `map`'s keys in ascending order.
    pub(crate) fn sorted(map: &KeyedBundles) -> Vec<Key> {
        let mut keys: Vec<Key> = map.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    fn finalized(merged: &KeyedBundles) -> Vec<QueryResult> {
        let mut out = Vec::new();
        let keys = sorted(merged);
        let answer = RangeAnswer {
            bundles: merged,
            keys: &keys,
        };
        finalize_sorted(1, &FUNCTIONS, answer, 0, 100, &mut out);
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
    pub(crate) fn constant_size_functions() -> Vec<AggFunction> {
        let sorted = |f: &AggFunction| matches!(f, AggFunction::Median | AggFunction::Quantile(_));
        FUNCTIONS.into_iter().filter(|f| !sorted(f)).collect()
    }

    /// Slice width of the store-level streams, in event time.
    pub(crate) const TICK: u64 = 100;
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
        let keys = sorted(&want);
        let answer = store.merged_range(range, q);
        assert_eq!(answer.bundles, &want, "{context}: cached {range:?}");
        assert_eq!(answer.keys, keys, "{context}: keys of {range:?}");
        assert_eq!(store.merged_bundles(range, q), &want, "{context}: map");
        // Asked again within the slice end, the answer is shared.
        let merges = store.merges();
        let again = store.merged_range(range, q);
        assert_eq!(
            (again.bundles, again.keys),
            (&want, &keys[..]),
            "{context}: again"
        );
        assert_eq!(store.merges(), merges, "{context}: {range:?} merged twice");
        // Only a suffix of an ordered store is served by its selection's
        // fold or chain: an unordered store (id gap, straggler) and a
        // range that ends before the newest slice still scan. Returns
        // whether it is.
        let suffix = store
            .run(range)
            .is_some_and(|run| run.len() > 1 && run.end == store.len());
        let chained = store.served_by_chain(q.selection, range);
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
                        asked[at].clone_from(store.merged_range(range, q).bundles);
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

    /// The transient bound of a sort-based selection: five nested
    /// windows ending at every slice, asked short-first, are one open
    /// fold — the answers of a slice end hold at most the live keys'
    /// bundles, not one map per length — and nothing of it survives the
    /// next push or gc.
    #[test]
    fn nested_sort_based_windows_hold_one_map_per_slice_end() {
        let queries = [2, 3, 5, 8, 13].map(|length| windowed(0, length, 1, false));
        let operators = all_operators().subsume_sorts();
        let mut rng = SmallRng::seed_from_u64(36);
        let mut store = SliceStore::default();
        let mut folded = 0;
        for tick in 0..80u64 {
            let end_ts = (tick + 1) * TICK;
            let data = SliceData {
                per_selection: vec![arb_keyed_of(&mut rng, operators, |rng| {
                    f64::from(rng.gen_range(1u32..5))
                })],
            };
            store.push(tick, tick * TICK, end_ts, data);
            assert_eq!(store.transient_bundles(), 0, "tick {tick}: after push");
            let mut live: Vec<Key> = store
                .slices
                .iter()
                .flat_map(|s| s.data.per_selection[0].keys().copied())
                .collect();
            live.sort_unstable();
            live.dedup();
            let mut asked = 0;
            for q in &queries {
                let Some(start) = q.window.fixed_window_ending_at(end_ts) else {
                    continue;
                };
                store.merged_range(SliceRange::Span(start, end_ts), q);
                asked += 1;
            }
            let held = store.transient_bundles();
            assert!(held <= live.len(), "tick {tick}: {held} bundles held");
            folded += u64::from(asked == queries.len() && held > 0);
            if tick % 2 == 0 {
                store.gc_span(end_ts.saturating_sub(13 * TICK));
                assert_eq!(store.transient_bundles(), 0, "tick {tick}: after gc");
            }
        }
        assert!(
            folded > 40,
            "the five windows ended together {folded} times"
        );
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

    pub(crate) fn group(queries: Vec<Query>) -> QueryGroup {
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
        let mut assembler = Assembler::new(&g);
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
