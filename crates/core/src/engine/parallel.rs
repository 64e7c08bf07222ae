//! Key-sharded parallel engine (ROADMAP "as fast as the hardware
//! allows": sharding + batching).
//!
//! Scotty-style slicing is embarrassingly parallel across keys: slice
//! partials merge associatively and every key's events fold into exactly
//! one shard, so per-key operator states are computed in the same order
//! as a sequential engine and merging shard partials per slice
//! reconstructs the sequential slice exactly. [`ParallelEngine`]
//! hash-partitions events by `key % shards` across N worker threads,
//! each running the existing reorder→slicer pipeline, and a
//! shard-merging window assembler recombines the per-shard slice
//! partials before emission.
//!
//! **What shards.** *Fixed time* windows
//! ([`crate::window::WindowSpec::has_precomputable_puncts`]) slice at
//! data-independent instants on every shard and merge by slice-end
//! timestamp. *Session* and *user-defined* windows define their
//! boundaries over the whole stream, so their per-shard slicers see only
//! fragments; the collector-side [`unfixed::UnfixedShardMerger`]
//! span-overlap-merges per-shard session fragments (gated by per-shard
//! *clear frontiers* so no session is released before the sequential
//! engine would have closed it) and aligns user-defined windows, whose
//! boundary markers the inlet broadcasts to every shard. *Count*
//! windows advance only on selection-matching events, so each shard
//! runs the query's selection predicates as a filter and forwards
//! matches — tagged with inlet sequence numbers — back to the
//! collector, where a sequential replay pipeline consumes them in
//! global ingest order at every watermark barrier (the parallel win is
//! the distributed predicate evaluation, not the aggregation itself).
//! No query class pins the caller thread anymore.
//!
//! **Determinism.** Watermarks are barriers: [`ParallelEngine::on_watermark`]
//! waits until every live shard acknowledged the watermark, so the set
//! of results visible to a drain after a watermark depends only on the
//! ingested events and watermarks — never on thread scheduling. Drained
//! results are sorted into the canonical `(query, window end, key,
//! window start)` order ([`crate::query::QueryResult::emit_order`]), so
//! parallel runs are byte-reproducible.
//!
//! **Shutdown.** A shard worker that panics is *degraded*: a drop guard
//! reports the panic through the [`handoff::Inbox`], the collector stops
//! waiting for the shard, and later slices are force-released without
//! its contributions (counted by `engine.shard_panics`) — mirroring how
//! the decentralized substrate degrades lost children.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use rustc_hash::FxHashMap;

use crate::aggregate::{AggFunction, OperatorBundle};
use crate::engine::slice::{SealedSlice, SliceData, SliceId};
use crate::engine::QueryGroup;
use crate::event::Key;
use crate::obs::prof::{self, ProfHandle, Profiler, Stage};
use crate::obs::trace::{SpanKind, TraceRecorder};
use crate::obs::MetricsRegistry;
use crate::query::{QueryId, QueryResult};
use crate::time::{DurationMs, Timestamp};
use crate::window::WindowSpec;

mod engine;
pub mod handoff;
mod shard;
mod sharded;
#[cfg(test)]
mod tests;
pub mod unfixed;

pub use engine::ParallelEngine;
pub use sharded::ShardedSlicer;

/// Tunables of the parallel engine.
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// Worker shard count (clamped to at least 1).
    pub shards: usize,
    /// Events accumulated at the inlet before a batch is sent to the
    /// shards (amortizes channel overhead).
    pub batch_size: usize,
    /// Per-shard channel capacity in batches (bounded channels give
    /// backpressure, i.e. sustainable throughput).
    pub channel_capacity: usize,
    /// Allowed out-of-orderness: `Some(l)` runs a reorder buffer of
    /// lateness `l` in front of every shard's slicers (and the
    /// collector-side count replays); `None` assumes timestamp-ordered
    /// input, like [`super::AggregationEngine`].
    pub lateness: Option<DurationMs>,
    /// Registry the sharded slicer resolves its per-shard hot-path
    /// counter handles against at spawn (so the inlet increments live
    /// counters instead of deferring to a publish); `None` keeps the
    /// counters internal until [`ShardedSlicer::publish`].
    pub registry: Option<Arc<MetricsRegistry>>,
    /// Pipeline profiler: shard workers and the collector open stage
    /// scopes against it ([`crate::obs::prof`]). Defaults to the
    /// process-global profiler, if one is installed.
    pub profiler: Option<Profiler>,
}

impl ParallelConfig {
    /// A configuration with `shards` workers and default batching.
    pub fn new(shards: usize) -> Self {
        Self {
            shards: shards.max(1),
            batch_size: 256,
            channel_capacity: 64,
            lateness: None,
            registry: None,
            profiler: Profiler::global().cloned(),
        }
    }
}

/// Clock stamp for a manual (non-RAII) stage span; `None` when no
/// profiler is attached or it is disabled.
fn prof_stamp(prof: &Option<ProfHandle>) -> Option<prof::Stamp> {
    prof.as_ref().and_then(ProfHandle::stamp)
}

/// Closes a manual stage span opened by [`prof_stamp`].
fn prof_record(prof: &mut Option<ProfHandle>, stage: Stage, stamp: Option<prof::Stamp>) {
    if let (Some(h), Some(t0)) = (prof.as_mut(), stamp) {
        h.record_since(stage, t0);
    }
}

// ---------------------------------------------------------------------
// Collector-side merging of per-shard slices.
// ---------------------------------------------------------------------

/// Merges the per-shard partials of one shardable group back into the
/// sequential slice stream.
///
/// Fixed time windows punctuate at the same instants on every shard, so
/// per-shard slices merge by **end** timestamp (start timestamps can
/// differ when a shard saw no early events). Merged slices are released
/// strictly in end order, once either every shard contributed
/// (`coverage == shards`) or the shard frontier watermark passed the end
/// (idle shards sealed nothing for the span). This is the in-core twin
/// of the decentralized `AlignedSliceMerger` over child nodes.
#[derive(Debug)]
struct ShardMerger {
    expected_coverage: u32,
    pending: BTreeMap<Timestamp, PendingMerge>,
    next_id: SliceId,
    forced_up_to: Timestamp,
    ready: VecDeque<SealedSlice>,
    recorder: Option<TraceRecorder>,
}

#[derive(Debug)]
struct PendingMerge {
    start_ts: Timestamp,
    data: SliceData,
    coverage: u32,
    low_ts: Timestamp,
    trace: Option<crate::obs::trace::TraceId>,
}

impl ShardMerger {
    fn new(expected_coverage: u32) -> Self {
        Self {
            expected_coverage: expected_coverage.max(1),
            pending: BTreeMap::new(),
            next_id: 0,
            forced_up_to: 0,
            ready: VecDeque::new(),
            recorder: None,
        }
    }

    fn set_recorder(&mut self, recorder: TraceRecorder) {
        self.recorder = Some(recorder);
    }

    /// Folds one shard's sealed slice in. Shardable groups carry no
    /// session gaps, and fixed-window end punctuations are re-derived by
    /// the assembler, so only the partial data travels.
    fn on_slice(&mut self, partial: SealedSlice) {
        let end_ts = partial.end_ts;
        let entry = self.pending.entry(end_ts).or_insert_with(|| PendingMerge {
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
        entry.coverage += 1;
        entry.low_ts = entry.low_ts.min(partial.low_watermark_ts);
        self.release();
    }

    /// Every live shard has passed `wm`: incomplete slices ending at or
    /// before it become releasable (missing shards were idle or
    /// degraded).
    fn advance(&mut self, wm: Timestamp) {
        if wm > self.forced_up_to {
            self.forced_up_to = wm;
            self.release();
        }
    }

    fn release(&mut self) {
        loop {
            let releasable = match self.pending.iter().next() {
                Some((&end_ts, entry)) => {
                    entry.coverage >= self.expected_coverage || end_ts <= self.forced_up_to
                }
                None => false,
            };
            if !releasable {
                break;
            }
            let Some((end_ts, done)) = self.pending.pop_first() else {
                break;
            };
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

    fn drain_ready(&mut self, group: usize, out: &mut Vec<(usize, SealedSlice)>) {
        out.extend(self.ready.drain(..).map(|s| (group, s)));
    }
}

// ---------------------------------------------------------------------
// Window assembly over merged slices, by time range.
// ---------------------------------------------------------------------

/// Assembles fixed time windows from shard-merged slices, selecting
/// slices by time range (merged slice ids are collector-local, and end
/// punctuations are derived from the specs — "Desis is able to calculate
/// window ends in advance").
#[derive(Debug)]
pub struct FixedAssembler {
    queries: Vec<FixedQuery>,
    slices: VecDeque<(Timestamp, Timestamp, SliceData)>,
    results_emitted: u64,
    merges: u64,
    recorder: Option<TraceRecorder>,
}

#[derive(Debug)]
struct FixedQuery {
    id: QueryId,
    selection: usize,
    functions: Vec<AggFunction>,
    spec: WindowSpec,
}

impl FixedAssembler {
    /// Creates an assembler for a group whose windows are all fixed time
    /// windows.
    pub fn new(group: &QueryGroup) -> Self {
        let queries = group
            .queries
            .iter()
            .filter(|cq| cq.query.window.has_precomputable_puncts())
            .map(|cq| FixedQuery {
                id: cq.query.id,
                selection: cq.selection as usize,
                functions: cq.query.functions.clone(),
                spec: cq.query.window,
            })
            .collect();
        Self {
            queries,
            slices: VecDeque::new(),
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
        self.slices.len()
    }

    /// Stops assembling windows for `query` (runtime removal).
    pub fn remove_query(&mut self, query: QueryId) -> bool {
        let before = self.queries.len();
        self.queries.retain(|q| q.id != query);
        self.queries.len() != before
    }

    /// Ingests one merged slice; assembles every window ending with it.
    pub fn on_slice(&mut self, slice: SealedSlice, out: &mut Vec<QueryResult>) {
        let low_ts = slice.low_watermark_ts;
        let slice_end = slice.end_ts;
        let trace = slice.trace;
        let before = out.len();
        self.slices
            .push_back((slice.start_ts, slice.end_ts, slice.data));
        // Windows of different queries often cover the same range; merge
        // each distinct (selection, range) once.
        let mut cache: FxHashMap<(usize, Timestamp, Timestamp), FxHashMap<Key, OperatorBundle>> =
            FxHashMap::default();
        for qi in 0..self.queries.len() {
            let (sel, start) = {
                let q = &self.queries[qi];
                match q.spec.fixed_window_ending_at(slice_end) {
                    Some(ws) => (q.selection, ws),
                    None => continue,
                }
            };
            let cache_key = (sel, start, slice_end);
            if let std::collections::hash_map::Entry::Vacant(slot) = cache.entry(cache_key) {
                let mut merged: FxHashMap<Key, OperatorBundle> = FxHashMap::default();
                for (s, e, data) in &self.slices {
                    if *s >= start && *e <= slice_end {
                        if let Some(map) = data.per_selection.get(sel) {
                            for (key, bundle) in map {
                                self.merges += 1;
                                match merged.get_mut(key) {
                                    Some(b) => b.merge(bundle),
                                    None => {
                                        merged.insert(*key, bundle.clone());
                                    }
                                }
                            }
                        }
                    }
                }
                slot.insert(merged);
            }
            let Some(merged) = cache.get(&cache_key) else {
                continue;
            };
            if merged.is_empty() {
                continue;
            }
            let q = &self.queries[qi];
            // Emit in key order so assembly output is hash-order-free
            // even before the engine's canonical drain sort.
            let mut keys: Vec<Key> = merged.keys().copied().collect();
            keys.sort_unstable();
            for key in keys {
                let bundle = &merged[&key];
                let values = q.functions.iter().map(|f| bundle.finalize(f)).collect();
                out.push(QueryResult {
                    query: q.id,
                    key,
                    window_start: start,
                    window_end: slice_end,
                    values,
                });
            }
        }
        self.results_emitted += (out.len() - before) as u64;
        if let (Some(rec), Some(id)) = (&mut self.recorder, trace) {
            if out.len() > before {
                rec.record(id, SpanKind::WindowAssembled);
                let mut queries: Vec<QueryId> = out[before..].iter().map(|r| r.query).collect();
                queries.sort_unstable();
                queries.dedup();
                for query in queries {
                    rec.record(id, SpanKind::ResultEmitted { query });
                }
            }
        }
        while let Some((_, e, _)) = self.slices.front() {
            if *e <= low_ts {
                self.slices.pop_front();
            } else {
                break;
            }
        }
    }
}
