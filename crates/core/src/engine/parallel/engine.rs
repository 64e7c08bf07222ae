//! The parallel engine facade: [`ParallelEngine`] assembles windows from
//! the merged slice stream of a [`ShardedSlicer`] and replays count
//! query-groups at the collector.

use std::sync::Arc;

use super::{prof_record, prof_stamp, ParallelConfig, ShardedSlicer};
use crate::engine::merge::TimeAssembler;
use crate::engine::reorder::ReorderBuffer;
use crate::engine::slice::SealedSlice;
use crate::engine::slicer::GroupSlicer;
use crate::engine::{Assembler, QueryAnalyzer, QueryGroup};
use crate::error::DesisError;
use crate::event::{Event, EventBatch};
use crate::metrics::EngineMetrics;
use crate::obs::prof::Stage;
use crate::obs::trace::{TraceCollector, TraceRecorder};
use crate::obs::{names, MetricsRegistry};
use crate::query::{Query, QueryId, QueryResult};
use crate::time::Timestamp;
use crate::window::WindowKind;

/// Collector-side assembler of one sharded group's merged slice stream.
#[derive(Debug)]
enum MergedAssembler {
    /// Fixed time windows: range-select assembly over merged slices.
    Fixed(TimeAssembler),
    /// Session/user-defined windows: the unfixed merger emits
    /// self-contained per-window slices that the ordinary assembler
    /// consumes unchanged.
    Unfixed(Assembler),
}

impl MergedAssembler {
    /// The assembler matching [`ShardedSlicer`]'s merger for `group`.
    fn for_group(group: &QueryGroup, registry: &Arc<MetricsRegistry>) -> Self {
        if group.has_unfixed_windows() {
            MergedAssembler::Unfixed(Assembler::with_registry(group, Arc::clone(registry)))
        } else {
            MergedAssembler::Fixed(TimeAssembler::new(group))
        }
    }

    fn on_slice(&mut self, slice: SealedSlice, out: &mut Vec<QueryResult>) {
        match self {
            MergedAssembler::Fixed(a) => a.on_slice(slice, out),
            MergedAssembler::Unfixed(a) => a.on_slice(slice, out),
        }
    }

    /// Stops emission for a removed query. Only the fixed assembler
    /// acts: it derives window ends from the specs itself, while the
    /// unfixed path is governed by slicer/merger-side removal (so a
    /// draining removal still emits in-flight windows, like the
    /// sequential engine).
    fn remove_query(&mut self, id: QueryId) {
        if let MergedAssembler::Fixed(a) = self {
            a.remove_query(id);
        }
    }

    fn set_recorder(&mut self, recorder: TraceRecorder) {
        match self {
            MergedAssembler::Fixed(a) => a.set_recorder(recorder),
            MergedAssembler::Unfixed(a) => a.set_recorder(recorder),
        }
    }

    fn results_emitted(&self) -> u64 {
        match self {
            MergedAssembler::Fixed(a) => a.results_emitted(),
            MergedAssembler::Unfixed(a) => a.results_emitted(),
        }
    }

    fn merges(&self) -> u64 {
        match self {
            MergedAssembler::Fixed(a) => a.merges(),
            MergedAssembler::Unfixed(a) => a.merges(),
        }
    }

    /// `(slices, suffix-cache bundles)` retained for open windows.
    fn retained_state(&self) -> (usize, usize) {
        match self {
            MergedAssembler::Fixed(a) => (a.retained_slices(), a.cached_bundles()),
            MergedAssembler::Unfixed(a) => (a.retained_slices(), a.cached_bundles()),
        }
    }
}

/// A count-measured query-group, replayed sequentially at the
/// collector: the shard-side filters forward only selection-matching
/// events (count windows advance on matches only, so the filter is
/// result-preserving), and this pipeline consumes them in global ingest
/// order at every watermark barrier.
#[derive(Debug)]
struct CountReplay {
    slicer: GroupSlicer,
    assembler: Assembler,
    reorder: Option<ReorderBuffer>,
}

/// Key-sharded parallel twin of [`crate::engine::AggregationEngine`]: same
/// queries, same results, N slicer threads (see the module docs for the
/// sharding model and determinism argument).
///
/// ```
/// use desis_core::prelude::*;
///
/// let queries = vec![
///     Query::new(1, WindowSpec::tumbling_time(1_000)?, AggFunction::Max),
///     Query::new(2, WindowSpec::sliding_time(2_000, 500)?, AggFunction::Quantile(0.9)),
/// ];
/// let mut engine = ParallelEngine::new(queries, 4)?;
/// for ts in 0..5_000u64 {
///     engine.on_event(&Event::new(ts, (ts % 10) as u32, (ts % 97) as f64));
/// }
/// engine.on_watermark(10_000);
/// let results = engine.drain_results();
/// assert!(!results.is_empty());
/// // Results arrive in canonical (query, window end, key) order.
/// assert!(results.windows(2).all(|w| w[0].emit_order() <= w[1].emit_order()));
/// # Ok::<(), desis_core::DesisError>(())
/// ```
#[derive(Debug)]
pub struct ParallelEngine {
    pub(super) sharded: Option<ShardedSlicer>,
    assemblers: Vec<MergedAssembler>,
    replays: Vec<CountReplay>,
    ordered: Vec<Event>,
    scratch: Vec<SealedSlice>,
    merged: Vec<(usize, SealedSlice)>,
    results: Vec<QueryResult>,
    registry: Arc<MetricsRegistry>,
    events: u64,
    cfg: ParallelConfig,
    query_ids: Vec<QueryId>,
    next_group_id: crate::engine::GroupId,
}

impl ParallelEngine {
    /// Builds a parallel engine with `shards` worker threads.
    pub fn new(queries: Vec<Query>, shards: usize) -> Result<Self, DesisError> {
        Self::with_config(queries, ParallelConfig::new(shards))
    }

    /// Builds a parallel engine with explicit tunables.
    pub fn with_config(queries: Vec<Query>, cfg: ParallelConfig) -> Result<Self, DesisError> {
        Self::with_registry(queries, cfg, Arc::new(MetricsRegistry::new()))
    }

    /// Builds a parallel engine publishing observability into `registry`.
    pub fn with_registry(
        queries: Vec<Query>,
        mut cfg: ParallelConfig,
        registry: Arc<MetricsRegistry>,
    ) -> Result<Self, DesisError> {
        cfg.shards = cfg.shards.max(1);
        // Resolve per-shard live counter handles at spawn (see
        // [`ShardedSlicer::publish`] / `note_send`).
        cfg.registry = Some(Arc::clone(&registry));
        let query_ids: Vec<QueryId> = queries.iter().map(|q| q.id).collect();
        // Query analysis is driver-lane work that happens before the
        // sharded slicer (and its profiler handle) exists; a transient
        // handle attributes it and merges additively into the lane.
        let mut boot = cfg.profiler.as_ref().map(|p| p.handle("driver"));
        let analyzer_t0 = prof_stamp(&boot);
        // Partition *queries* before analysis: a single session query
        // sharing a predicate with ten fixed-window queries would
        // otherwise drag the whole group through the (costlier) unfixed
        // merge. Splitting trades the cross-type slice sharing between
        // the sets (only ever present within one predicate-group) for
        // the cheapest merge path per window class.
        let (fixed, rest): (Vec<_>, Vec<_>) = queries
            .into_iter()
            .partition(|q| q.window.has_precomputable_puncts());
        let (unfixed, counts): (Vec<_>, Vec<_>) = rest.into_iter().partition(|q| {
            matches!(
                q.window.kind,
                WindowKind::Session { .. } | WindowKind::UserDefined { .. }
            )
        });
        let analyzer = QueryAnalyzer::default();
        let analyze = |qs: Vec<Query>| -> Result<Vec<QueryGroup>, DesisError> {
            if qs.is_empty() {
                Ok(Vec::new())
            } else {
                analyzer.analyze(qs)
            }
        };
        let mut sharded_groups = analyze(fixed)?;
        let mut unfixed_groups = analyze(unfixed)?;
        let mut count_groups = analyze(counts)?;
        debug_assert!(sharded_groups.iter().all(group_is_shardable));
        // Re-number the later analyses so group ids stay unique.
        let mut next_group_id = sharded_groups.len() as crate::engine::GroupId;
        for g in unfixed_groups.iter_mut().chain(count_groups.iter_mut()) {
            g.id = next_group_id;
            next_group_id += 1;
        }
        sharded_groups.append(&mut unfixed_groups);
        prof_record(&mut boot, Stage::Analyzer, analyzer_t0);
        drop(boot);
        let assemblers: Vec<MergedAssembler> = sharded_groups
            .iter()
            .map(|g| MergedAssembler::for_group(g, &registry))
            .collect();
        let sharded = if sharded_groups.is_empty() && count_groups.is_empty() {
            None
        } else {
            Some(ShardedSlicer::with_counts(
                &sharded_groups,
                &count_groups,
                &cfg,
            )?)
        };
        let replays = count_groups
            .into_iter()
            .map(|g| CountReplay {
                assembler: Assembler::with_registry(&g, Arc::clone(&registry)),
                reorder: cfg.lateness.map(ReorderBuffer::new),
                slicer: GroupSlicer::new(g),
            })
            .collect();
        Ok(Self {
            sharded,
            assemblers,
            replays,
            ordered: Vec::new(),
            scratch: Vec::new(),
            merged: Vec::new(),
            results: Vec::new(),
            registry,
            events: 0,
            cfg,
            query_ids,
            next_group_id,
        })
    }

    /// Worker shard count.
    pub fn shards(&self) -> usize {
        self.cfg.shards
    }

    /// Number of query-groups (sharded + count replays).
    pub fn group_count(&self) -> usize {
        self.assemblers.len() + self.replays.len()
    }

    /// The engine's observability registry.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Shard workers that panicked and were degraded.
    pub fn shard_panics(&self) -> u64 {
        self.sharded.as_ref().map_or(0, ShardedSlicer::shard_panics)
    }

    /// Events dropped as too late across the sharded reorder buffers
    /// and the count replays' buffers (0 when no lateness is
    /// configured).
    pub fn late_dropped(&self) -> u64 {
        let sharded = self.sharded.as_ref().map_or(0, ShardedSlicer::late_dropped);
        let replays: u64 = self
            .replays
            .iter()
            .filter_map(|r| r.reorder.as_ref())
            .map(ReorderBuffer::late_dropped)
            .sum();
        sharded + replays
    }

    /// Enables causal slice tracing on every shard worker and the
    /// merge-back/assembly path; `node` keys the ring buffers.
    pub fn install_tracing(&mut self, collector: &TraceCollector, node: u32) {
        if let Some(sharded) = &mut self.sharded {
            sharded.install_tracing(collector, node);
        }
        for assembler in &mut self.assemblers {
            assembler.set_recorder(collector.recorder(node));
        }
        for replay in &mut self.replays {
            replay.slicer.set_recorder(collector.recorder(node));
            replay.assembler.set_recorder(collector.recorder(node));
        }
    }

    /// Ingests one event (batched internally; see
    /// [`ParallelEngine::on_batch`] for amortized ingestion).
    #[inline]
    pub fn on_event(&mut self, ev: &Event) {
        self.events += 1;
        if let Some(sharded) = &mut self.sharded {
            if sharded.on_event(ev) {
                self.collect_ready();
            }
        }
    }

    /// Ingests a batch of events.
    pub fn on_batch(&mut self, batch: &EventBatch) {
        self.events += batch.len() as u64;
        if let Some(sharded) = &mut self.sharded {
            sharded.on_batch(batch);
        }
        self.collect_ready();
    }

    /// Advances event time. This is a **barrier**: it returns once every
    /// live shard has processed the watermark, so a subsequent
    /// [`ParallelEngine::drain_results`] is deterministic.
    pub fn on_watermark(&mut self, ts: Timestamp) {
        if let Some(sharded) = &mut self.sharded {
            sharded.on_watermark(ts);
        }
        self.replay_counts(Some(ts));
        self.collect_ready();
    }

    /// Replays the count-query events forwarded by the shard filters.
    /// Called only at watermark barriers (`wm = Some(ts)`) and at finish
    /// (`wm = None`), when the forwarded set is complete; the inlet
    /// sequence tags restore global ingest order across shards.
    fn replay_counts(&mut self, wm: Option<Timestamp>) {
        if self.replays.is_empty() {
            return;
        }
        let Some(sharded) = &mut self.sharded else {
            return;
        };
        // Replay is driver-lane self-time; the merge spans recorded by
        // `take_count_events → collect` on the same handle are nested
        // and subtract out.
        let replay_t0 = prof_stamp(&sharded.prof);
        for (idx, replay) in self.replays.iter_mut().enumerate() {
            let mut items = sharded.take_count_events(idx);
            items.sort_unstable_by_key(|(seq, _)| *seq);
            match &mut replay.reorder {
                Some(rb) => {
                    for (_, ev) in &items {
                        rb.push(*ev, &mut self.ordered);
                    }
                    match wm {
                        Some(ts) => rb.advance(ts, &mut self.ordered),
                        // End of stream: release everything, like the
                        // shard workers flushing their buffers.
                        None => rb.flush(&mut self.ordered),
                    }
                }
                None => self.ordered.extend(items.iter().map(|(_, ev)| *ev)),
            }
            for i in 0..self.ordered.len() {
                let ev = self.ordered[i];
                replay.slicer.on_event(&ev, &mut self.scratch);
                for slice in self.scratch.drain(..) {
                    replay.assembler.on_slice(slice, &mut self.results);
                }
            }
            self.ordered.clear();
            if let Some(ts) = wm {
                replay.slicer.on_watermark(ts, &mut self.scratch);
                for slice in self.scratch.drain(..) {
                    replay.assembler.on_slice(slice, &mut self.results);
                }
            }
        }
        prof_record(&mut sharded.prof, Stage::Replay, replay_t0);
    }

    fn collect_ready(&mut self) {
        let Some(sharded) = &mut self.sharded else {
            return;
        };
        sharded.drain_merged(&mut self.merged);
        if self.merged.is_empty() {
            return;
        }
        let t0 = prof_stamp(&sharded.prof);
        for (group, slice) in self.merged.drain(..) {
            if let Some(assembler) = self.assemblers.get_mut(group) {
                assembler.on_slice(slice, &mut self.results);
            }
        }
        prof_record(&mut sharded.prof, Stage::Assemble, t0);
    }

    /// Takes all results produced since the last drain, in canonical
    /// `(query, window end, key, window start)` order.
    pub fn drain_results(&mut self) -> Vec<QueryResult> {
        self.collect_ready();
        let mut out = std::mem::take(&mut self.results);
        let t0 = self.sharded.as_ref().and_then(|s| prof_stamp(&s.prof));
        crate::query::sort_results(&mut out);
        if let Some(sharded) = &mut self.sharded {
            prof_record(&mut sharded.prof, Stage::Drain, t0);
            // A drain typically follows `finish` (which already flushed
            // the driver handle), so push this span through eagerly.
            if let Some(h) = &mut sharded.prof {
                h.flush();
            }
        }
        out
    }

    /// Results produced and not yet drained.
    pub fn pending_results(&self) -> usize {
        self.results.len()
    }

    /// Removes a query at runtime on every shard and count replay, the
    /// counterpart of [`ParallelEngine::add_query`]. Same semantics as
    /// the sequential engine: `immediate` drops in-flight windows,
    /// otherwise they drain.
    pub fn remove_query(&mut self, id: QueryId, immediate: bool) {
        if let Some(sharded) = &mut self.sharded {
            sharded.remove_query(id, immediate);
        }
        for assembler in &mut self.assemblers {
            assembler.remove_query(id);
        }
        for replay in &mut self.replays {
            replay.slicer.remove_query(id, immediate);
        }
        self.query_ids.retain(|q| *q != id);
    }

    /// Adds a query at runtime (Section 3.2), the counterpart of the
    /// sequential engine's `add_query`. The query is classified exactly
    /// like at construction — precomputable punctuations shard as a
    /// fixed group, session/user-defined windows shard behind the
    /// cross-shard unfixed merger, count windows install shard-side
    /// filters feeding a collector replay — and starts processing with
    /// the next ingested event (the inlet is flushed first, and the
    /// punctuation sets of the new group are computed from its own
    /// specs by the per-shard slicers).
    pub fn add_query(&mut self, query: Query) -> Result<(), DesisError> {
        if self.query_ids.contains(&query.id) {
            return Err(DesisError::InvalidQuery(format!(
                "duplicate query id {}",
                query.id
            )));
        }
        let id = query.id;
        let is_fixed = query.window.has_precomputable_puncts();
        let is_unfixed = matches!(
            query.window.kind,
            WindowKind::Session { .. } | WindowKind::UserDefined { .. }
        );
        let mut boot = self.cfg.profiler.as_ref().map(|p| p.handle("driver"));
        let analyzer_t0 = prof_stamp(&boot);
        let mut groups = QueryAnalyzer::default().analyze(vec![query])?;
        prof_record(&mut boot, Stage::Analyzer, analyzer_t0);
        drop(boot);
        let mut group = groups.remove(0);
        group.id = self.next_group_id;
        self.next_group_id += 1;
        if self.sharded.is_none() {
            self.sharded = Some(ShardedSlicer::with_counts(&[], &[], &self.cfg)?);
        }
        if let Some(sharded) = &mut self.sharded {
            if is_fixed || is_unfixed {
                let index = sharded.add_group(group.clone());
                debug_assert_eq!(index, self.assemblers.len());
                self.assemblers
                    .push(MergedAssembler::for_group(&group, &self.registry));
            } else {
                let predicates = group.selections.iter().map(|s| s.predicate).collect();
                let replay = sharded.add_count_filter(predicates);
                debug_assert_eq!(replay, self.replays.len());
                self.replays.push(CountReplay {
                    assembler: Assembler::with_registry(&group, Arc::clone(&self.registry)),
                    reorder: self.cfg.lateness.map(ReorderBuffer::new),
                    slicer: GroupSlicer::new(group),
                });
            }
        }
        self.query_ids.push(id);
        Ok(())
    }

    /// Ends the stream: joins the shard workers, replays the remaining
    /// count events, and drains what the watermarks covered. Call after
    /// a final [`ParallelEngine::on_watermark`] past the last window of
    /// interest.
    pub fn finish(&mut self) {
        if let Some(sharded) = &mut self.sharded {
            sharded.finish();
        }
        self.replay_counts(None);
        self.collect_ready();
    }

    /// Aggregated metrics over all shards and pipelines; the slicer
    /// counters of shard workers are complete after
    /// [`ParallelEngine::finish`]. Also publishes cumulative `engine.*`
    /// and per-shard counters into the registry, next to gauges of the
    /// state the collector retains for open windows.
    pub fn metrics(&self) -> EngineMetrics {
        let mut m = EngineMetrics::default();
        let (mut retained, mut cached) = (0, 0);
        let mut retain = |state: (usize, usize)| {
            retained += state.0;
            cached += state.1;
        };
        if let Some(sharded) = &self.sharded {
            m.absorb(&sharded.metrics());
            sharded.publish(&self.registry);
            retain(sharded.retained_state());
        }
        for assembler in &self.assemblers {
            m.results += assembler.results_emitted();
            m.merges += assembler.merges();
            retain(assembler.retained_state());
        }
        for replay in &self.replays {
            m.absorb(replay.slicer.metrics());
            m.results += replay.assembler.results_emitted();
            m.merges += replay.assembler.merges();
            let assembler = &replay.assembler;
            retain((assembler.retained_slices(), assembler.cached_bundles()));
        }
        m.events = self.events;
        m.publish(&self.registry, "engine");
        let gauge = |name, level: usize| self.registry.gauge(name).set(level as i64);
        gauge(names::ENGINE_ASSEMBLER_RETAINED_SLICES, retained);
        gauge(names::ENGINE_ASSEMBLER_CACHED_BUNDLES, cached);
        if let Some(profiler) = &self.cfg.profiler {
            profiler.publish(&self.registry);
        }
        m
    }
}

/// Whether every window of the group punctuates at data-independent
/// instants (fixed time windows), making the group safe to shard by key.
fn group_is_shardable(group: &QueryGroup) -> bool {
    group
        .queries
        .iter()
        .all(|cq| cq.query.window.has_precomputable_puncts())
}
