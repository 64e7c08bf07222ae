//! The parallel engine facade: [`ParallelEngine`] ends every sharded
//! group's merged slice stream in a [`GroupTerminal`] and replays count
//! query-groups at the collector through a [`RawTerminal`].

use std::sync::Arc;

use super::{ParallelConfig, ShardedSlicer};
use crate::engine::slice::SealedSlice;
use crate::engine::terminal::{self, GroupPlan, GroupTerminal, RawTerminal};
use crate::engine::QueryAnalyzer;
use crate::error::DesisError;
use crate::event::{Event, EventBatch};
use crate::metrics::EngineMetrics;
use crate::obs::prof::{self, Stage};
use crate::obs::trace::TraceCollector;
use crate::obs::MetricsRegistry;
use crate::query::{Query, QueryId, QueryResult};
use crate::time::Timestamp;

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
    pub(super) sharded: ShardedSlicer,
    /// The terminal of every sharded group, by its index in the merged
    /// slice stream.
    terminals: Vec<GroupTerminal>,
    /// Count-measured query-groups, replayed sequentially at the
    /// collector: the shard-side filters forward only selection-matching
    /// events (count windows advance on matches only, so the filter is
    /// result-preserving), and the replay consumes them in global ingest
    /// order at every watermark barrier. Indexed by replay slot.
    replays: Vec<RawTerminal>,
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
        // The slicer counts and times into the engine's registry.
        cfg.registry = Some(Arc::clone(&registry));
        let mut engine = Self {
            sharded: ShardedSlicer::with_counts(&[], &[], &cfg)?,
            terminals: Vec::new(),
            replays: Vec::new(),
            merged: Vec::new(),
            results: Vec::new(),
            registry,
            events: 0,
            cfg,
            query_ids: Vec::new(),
            next_group_id: 0,
        };
        // Partition *queries* by plan before analysis: a single session
        // query sharing a predicate with ten fixed-window queries would
        // otherwise drag the whole group through the (costlier) unfixed
        // merge. Splitting trades the cross-type slice sharing between
        // the sets (only ever present within one predicate-group) for
        // the cheapest merge path per window class.
        let mut by_plan: [Vec<Query>; 3] = Default::default();
        for q in queries {
            by_plan[GroupPlan::of_window(&q.window) as usize].push(q);
        }
        for queries in by_plan {
            engine.install(queries)?;
        }
        Ok(engine)
    }

    /// Analyzes `queries` — all of one plan — into query-groups and
    /// installs each on the shards and at the collector: a slicer per
    /// shard with a merger and a terminal here, or, for count windows,
    /// shard-side filters feeding a collector replay. The groups start
    /// processing with the next ingested event.
    fn install(&mut self, queries: Vec<Query>) -> Result<(), DesisError> {
        if queries.is_empty() {
            return Ok(());
        }
        let ids: Vec<QueryId> = queries.iter().map(|q| q.id).collect();
        let sharded = &mut self.sharded;
        let analyzer_t0 = prof::stamp(&sharded.prof);
        let groups = QueryAnalyzer::default().analyze(queries)?;
        prof::record(&mut sharded.prof, Stage::Analyzer, analyzer_t0);
        for mut group in groups {
            group.id = self.next_group_id;
            self.next_group_id += 1;
            match GroupPlan::of(&group) {
                GroupPlan::Raw => {
                    let predicates = group.selections.iter().map(|s| s.predicate).collect();
                    let replay = sharded.add_count_filter(predicates);
                    debug_assert_eq!(replay, self.replays.len());
                    self.replays
                        .push(RawTerminal::new(group, self.cfg.lateness));
                }
                plan => {
                    self.terminals.push(GroupTerminal::new(plan, &group));
                    let index = sharded.add_group(group);
                    debug_assert_eq!(index + 1, self.terminals.len());
                }
            }
        }
        self.query_ids.extend(ids);
        Ok(())
    }

    /// Worker shard count.
    pub fn shards(&self) -> usize {
        self.cfg.shards
    }

    /// Number of query-groups (sharded + count replays).
    pub fn group_count(&self) -> usize {
        self.terminals.len() + self.replays.len()
    }

    /// The engine's observability registry.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Shard workers that panicked and were degraded.
    pub fn shard_panics(&self) -> u64 {
        self.sharded.shard_panics()
    }

    /// Events dropped as too late across the sharded reorder buffers
    /// and the count replays' buffers (0 when no lateness is
    /// configured).
    pub fn late_dropped(&self) -> u64 {
        let replays: u64 = self.replays.iter().map(RawTerminal::late_dropped).sum();
        self.sharded.late_dropped() + replays
    }

    /// Enables causal slice tracing on every shard worker and the
    /// merge-back/assembly path; `node` keys the ring buffers.
    pub fn install_tracing(&mut self, collector: &TraceCollector, node: u32) {
        self.sharded.install_tracing(collector, node);
        for terminal in &mut self.terminals {
            terminal.set_recorder(collector.recorder(node));
        }
        for replay in &mut self.replays {
            replay.set_recorder(collector.recorder(node));
        }
    }

    /// Ingests one event (batched internally; see
    /// [`ParallelEngine::on_batch`] for amortized ingestion).
    #[inline]
    pub fn on_event(&mut self, ev: &Event) {
        self.events += 1;
        if self.sharded.on_event(ev) {
            self.collect_ready();
        }
    }

    /// Ingests a batch of events.
    pub fn on_batch(&mut self, batch: &EventBatch) {
        self.events += batch.len() as u64;
        self.sharded.on_batch(batch);
        self.collect_ready();
    }

    /// Advances event time. This is a **barrier**: it returns once every
    /// live shard has processed the watermark, so a subsequent
    /// [`ParallelEngine::drain_results`] is deterministic.
    pub fn on_watermark(&mut self, ts: Timestamp) {
        self.sharded.on_watermark(ts);
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
        let sharded = &mut self.sharded;
        // Replay is driver-lane self-time; the merge spans recorded by
        // `take_count_events → collect` on the same handle are nested
        // and subtract out.
        let replay_t0 = prof::stamp(&sharded.prof);
        for (idx, replay) in self.replays.iter_mut().enumerate() {
            let mut items = sharded.take_count_events(idx);
            items.sort_unstable_by_key(|(seq, _)| *seq);
            let events = items.into_iter().map(|(_, ev)| ev);
            replay.replay(events, wm, &mut self.results);
        }
        prof::record(&mut sharded.prof, Stage::Replay, replay_t0);
    }

    fn collect_ready(&mut self) {
        let sharded = &mut self.sharded;
        sharded.drain_merged(&mut self.merged);
        if self.merged.is_empty() {
            return;
        }
        let t0 = prof::stamp(&sharded.prof);
        for (group, slice) in self.merged.drain(..) {
            if let Some(terminal) = self.terminals.get_mut(group) {
                terminal.on_slice(slice, &mut self.results);
            }
        }
        prof::record(&mut sharded.prof, Stage::Assemble, t0);
    }

    /// Takes all results produced since the last drain, in canonical
    /// `(query, window end, key, window start)` order.
    pub fn drain_results(&mut self) -> Vec<QueryResult> {
        self.collect_ready();
        let mut out = std::mem::take(&mut self.results);
        let prof = &mut self.sharded.prof;
        let t0 = prof::stamp(prof);
        crate::query::sort_results(&mut out);
        prof::record(prof, Stage::Drain, t0);
        // A drain typically follows `finish` (which already flushed the
        // driver handle), so push this span through eagerly.
        if let Some(h) = prof {
            h.flush();
        }
        out
    }

    /// Removes a query at runtime on every shard and count replay, the
    /// counterpart of [`ParallelEngine::add_query`], with the sequential
    /// engine's answer: the removal takes effect at the event time the
    /// stream has reached, `immediate` keeps the query's windows that
    /// ended by then, a draining removal also those that had started.
    /// An aligned group needs no barrier for that — its terminal reads
    /// the rule off the slice stream, so windows whose slices are still
    /// in flight assemble as they arrive; a count replay is first brought
    /// up to the removal, which takes one.
    pub fn remove_query(&mut self, id: QueryId, immediate: bool) {
        self.query_ids.retain(|q| *q != id);
        // Before its first event the stream stands nowhere, and a slicer
        // removing a query then drops it outright.
        let (at, immediate) = match self.sharded.remove_query(id, immediate) {
            Some(at) => (at, immediate),
            None => (0, true),
        };
        for terminal in &mut self.terminals {
            terminal.remove_query(id, at, immediate, &mut self.results);
        }
        if let Some(replay) = self
            .replays
            .iter()
            .position(|r| r.slicer.group().query_index(id).is_some())
        {
            self.on_watermark(at);
            self.replays[replay].slicer.remove_query(id, immediate);
        }
    }

    /// Adds a query at runtime (Section 3.2), the counterpart of the
    /// sequential engine's `add_query`. The query is classified exactly
    /// like at construction and starts processing with the next ingested
    /// event (the inlet is flushed first, and the punctuation sets of the
    /// new group are computed from its own specs by the per-shard
    /// slicers).
    pub fn add_query(&mut self, query: Query) -> Result<(), DesisError> {
        if self.query_ids.contains(&query.id) {
            return Err(DesisError::InvalidQuery(format!(
                "duplicate query id {}",
                query.id
            )));
        }
        self.install(vec![query])
    }

    /// Ends the stream: joins the shard workers, replays the remaining
    /// count events, and drains what the watermarks covered. Call after
    /// a final [`ParallelEngine::on_watermark`] past the last window of
    /// interest.
    pub fn finish(&mut self) {
        self.sharded.finish();
        self.replay_counts(None);
        self.collect_ready();
    }

    /// Aggregated metrics over all shards and pipelines; the slicer
    /// counters of shard workers are complete after
    /// [`ParallelEngine::finish`]. Also publishes cumulative `engine.*`
    /// and per-shard counters into the registry, next to gauges of the
    /// state the collector retains for open windows.
    pub fn metrics(&self) -> EngineMetrics {
        let mut m = self.sharded.metrics();
        self.sharded.publish(&self.registry);
        let mut retained = self.sharded.retained_state();
        for terminal in &self.terminals {
            terminal.roll_up(&mut m, &mut retained);
        }
        for replay in &self.replays {
            replay.roll_up(&mut m, &mut retained);
        }
        m.events = self.events;
        terminal::publish(&m, retained, &self.registry);
        m
    }
}
