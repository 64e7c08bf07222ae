//! The parallel engine facade: [`ParallelEngine`] ends every sharded
//! group's merged slice stream in a [`GroupTerminal`] and slices count
//! query-groups on the driver thread through a [`RawTerminal`], fed from
//! the inlet's ordered stream.

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
use crate::obs::{names, MetricsRegistry};
use crate::query::{Query, QueryId, QueryResult, ResultRuns};
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
    /// Count-measured query-groups, sliced on the driver thread: each
    /// takes its inlet filter's matches (count windows advance on matches
    /// only, so the filter is result-preserving) as every batch leaves
    /// for the shards, while they slice it. Indexed by replay slot.
    replays: Vec<RawTerminal>,
    merged: Vec<(usize, SealedSlice)>,
    /// Results since the last drain, one run per installed query.
    runs: ResultRuns,
    registry: Arc<MetricsRegistry>,
    events: u64,
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
        // The slicer counts and times into the engine's registry.
        cfg.registry = Some(Arc::clone(&registry));
        let mut engine = Self {
            sharded: ShardedSlicer::with_counts(&[], &[], &cfg)?,
            terminals: Vec::new(),
            replays: Vec::new(),
            merged: Vec::new(),
            runs: ResultRuns::default(),
            registry,
            events: 0,
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
    /// shard with a merger and a terminal here, or, for count windows, an
    /// inlet filter feeding a terminal here. The groups start processing
    /// with the next ingested event.
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
                    self.replays.push(RawTerminal::new(group));
                }
                plan => {
                    self.terminals.push(GroupTerminal::new(plan, &group));
                    let index = sharded.add_group(group);
                    debug_assert_eq!(index + 1, self.terminals.len());
                }
            }
        }
        self.runs.install(ids);
        Ok(())
    }

    /// Worker shard count.
    pub fn shards(&self) -> usize {
        self.sharded.shards()
    }

    /// Number of query-groups (sharded + count groups).
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

    /// Events the inlet's reorder buffer dropped as too late (0 when no
    /// lateness is configured): each one once, whichever groups it was
    /// for.
    pub fn late_dropped(&self) -> u64 {
        self.sharded.late_dropped()
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
            self.slice_counts(None);
            self.collect_ready();
        }
    }

    /// Ingests a batch of events.
    pub fn on_batch(&mut self, batch: &EventBatch) {
        self.events += batch.len() as u64;
        self.sharded.on_batch(batch);
        self.slice_counts(None);
        self.collect_ready();
    }

    /// Advances event time. This is a **barrier**: it returns once every
    /// live shard has processed the watermark, so a subsequent
    /// [`ParallelEngine::drain_results`] is deterministic. The count
    /// groups reach the watermark while the shards work towards it.
    pub fn on_watermark(&mut self, ts: Timestamp) {
        self.sharded.send_watermark(ts);
        self.slice_counts(Some(ts));
        self.sharded.await_watermark(ts);
        self.collect_ready();
    }

    /// Slices the count groups' inlet matches not yet taken, then
    /// advances them to `wm` if given.
    fn slice_counts(&mut self, wm: Option<Timestamp>) {
        if self.replays.is_empty() {
            return;
        }
        let sharded = &mut self.sharded;
        let replay_t0 = prof::stamp(&sharded.prof);
        for (idx, replay) in self.replays.iter_mut().enumerate() {
            for (_, ev) in sharded.count_matches(idx).drain(..) {
                replay.on_event(&ev, self.runs.emitted());
            }
            if let Some(ts) = wm {
                replay.on_watermark(ts, self.runs.emitted());
            }
        }
        self.runs.absorb();
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
                terminal.on_slice(slice, self.runs.emitted());
            }
        }
        self.runs.absorb();
        prof::record(&mut sharded.prof, Stage::Assemble, t0);
    }

    /// Takes all results produced since the last drain, in canonical
    /// `(query, window end, key, window start)` order: the per-query runs
    /// of [`crate::engine::AggregationEngine::drain_results`],
    /// concatenated in query-id order.
    pub fn drain_results(&mut self) -> Vec<QueryResult> {
        self.collect_ready();
        let prof = &mut self.sharded.prof;
        let t0 = prof::stamp(prof);
        let out = self.runs.drain();
        prof::record(prof, Stage::Drain, t0);
        // A drain typically follows `finish` (which already flushed the
        // driver handle), so push this span through eagerly.
        if let Some(h) = prof {
            h.flush();
        }
        out
    }

    /// Removes a query at runtime on every shard and count group, the
    /// counterpart of [`ParallelEngine::add_query`], with the sequential
    /// engine's answer: the removal takes effect at the event time the
    /// stream has reached, `immediate` keeps the query's windows that
    /// ended by then, a draining removal also those that had started.
    /// No group needs a barrier for that: an aligned terminal reads the
    /// rule off the slice stream, so windows whose slices are still in
    /// flight assemble as they arrive, and a count group has sliced
    /// everything the inlet released once it took its matches.
    pub fn remove_query(&mut self, id: QueryId, immediate: bool) {
        self.runs.retire(id);
        // Before its first event the stream stands nowhere, and a slicer
        // removing a query then drops it outright.
        let (at, immediate) = match self.sharded.remove_query(id, immediate) {
            Some(at) => (at, immediate),
            None => (0, true),
        };
        for terminal in &mut self.terminals {
            terminal.remove_query(id, at, immediate, self.runs.emitted());
        }
        self.slice_counts(None);
        if let Some(replay) = self
            .replays
            .iter_mut()
            .find(|r| r.slicer.group().query_index(id).is_some())
        {
            replay.on_watermark(at, self.runs.emitted());
            replay.slicer.remove_query(id, immediate);
        }
        self.runs.absorb();
    }

    /// Adds a query at runtime (Section 3.2), the counterpart of the
    /// sequential engine's `add_query`. The query is classified exactly
    /// like at construction and starts processing with the next ingested
    /// event (the inlet is flushed first, and the punctuation sets of the
    /// new group are computed from its own specs by the per-shard
    /// slicers).
    pub fn add_query(&mut self, query: Query) -> Result<(), DesisError> {
        if self.runs.installed(query.id) {
            return Err(DesisError::InvalidQuery(format!(
                "duplicate query id {}",
                query.id
            )));
        }
        self.install(vec![query])
    }

    /// Ends the stream: joins the shard workers, slices the count
    /// groups' remaining matches, and drains what the watermarks covered.
    /// Call after a final [`ParallelEngine::on_watermark`] past the last
    /// window of interest.
    pub fn finish(&mut self) {
        self.sharded.finish();
        self.slice_counts(None);
        self.collect_ready();
    }

    /// Aggregated metrics over all shards and pipelines; the slicer
    /// counters of shard workers are complete after
    /// [`ParallelEngine::finish`]. Also publishes cumulative `engine.*`
    /// and per-shard counters into the registry, next to gauges of the
    /// state the collector and the inlet's reorder buffer retain.
    pub fn metrics(&self) -> EngineMetrics {
        let mut m = self.sharded.metrics();
        self.sharded.publish(&self.registry);
        self.registry
            .counter(names::ENGINE_LATE_DROPPED)
            .raise_to(self.late_dropped());
        self.registry
            .gauge(names::ENGINE_REORDER_BUFFERED_MAX)
            .set_max(self.sharded.reorder_buffered_max() as i64);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggFunction;
    use crate::window::WindowSpec;

    /// A removed query's result run does not outlive the first drain
    /// after its removal, whichever group runs it.
    #[test]
    fn a_drain_drops_the_result_run_of_a_removed_query() {
        let queries = vec![
            Query::new(1, WindowSpec::tumbling_time(100).unwrap(), AggFunction::Sum),
            Query::new(2, WindowSpec::session(50).unwrap(), AggFunction::Max),
            Query::new(3, WindowSpec::tumbling_count(2).unwrap(), AggFunction::Sum),
        ];
        for removed in [1, 2, 3] {
            let mut engine = ParallelEngine::new(queries.clone(), 2).unwrap();
            for ts in 0..300 {
                engine.on_event(&Event::new(ts, (ts % 3) as u32, 1.0));
            }
            engine.on_watermark(300);
            engine.remove_query(removed, true);
            assert!(!engine.drain_results().is_empty());
            assert_eq!(engine.runs.runs(), 2, "query {removed} removed");
            assert!(!engine.runs.installed(removed));
        }
    }

    /// An id reused after a draining removal: the old query's last window
    /// and the new query's window ending with it share one run, each
    /// window's keys in a block, so the run is not in canonical order and
    /// the drain sorts it.
    #[test]
    fn a_reused_query_id_drains_in_canonical_order() {
        let window = |length| WindowSpec::tumbling_time(length).unwrap();
        let queries = vec![Query::new(1, window(1_000), AggFunction::Sum)];
        let mut engine = ParallelEngine::new(queries, 2).unwrap();
        for ts in 0..500 {
            engine.on_event(&Event::new(ts, (ts % 2) as u32, 1.0));
        }
        engine.remove_query(1, false);
        engine
            .add_query(Query::new(1, window(100), AggFunction::Count))
            .unwrap();
        for ts in 500..1_000 {
            engine.on_event(&Event::new(ts, (ts % 2) as u32, 1.0));
        }
        engine.on_watermark(1_000);
        let drained = engine.drain_results();
        assert!(drained.is_sorted_by_key(QueryResult::emit_order));
        let ending: Vec<_> = drained
            .iter()
            .filter(|r| r.window_end == 1_000)
            .map(|r| (r.key, r.window_start, r.values[0]))
            .collect();
        let want = [(0, 0, 500.0), (0, 900, 50.0), (1, 0, 500.0), (1, 900, 50.0)];
        assert_eq!(ending, want.map(|(k, s, v)| (k, s, Some(v))));
    }
}
