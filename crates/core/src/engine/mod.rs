//! The Desis aggregation engine (paper Section 4).
//!
//! [`AggregationEngine`] is the single-node facade: the query analyzer
//! compiles queries into query-groups, each group gets a [`GroupSlicer`]
//! (incremental aggregation + slicing) and an [`Assembler`] (window
//! merging). Decentralized deployments (the `desis-net` crate) drive the
//! same [`GroupSlicer`] on local nodes and exchange [`SealedSlice`]
//! partials; intermediate nodes, the root and the sharded collector merge
//! and assemble them with the one aligned merger, the one unfixed merger
//! and the one time-range assembler of [`merge`], whose slice-store
//! kernel the [`Assembler`] shares. Where a group ends — here, at the
//! sharded collector or at the root — it ends in a [`terminal`]: this
//! engine runs every group as a [`RawTerminal`].

pub mod analyzer;
pub mod assembler;
pub mod group;
pub mod merge;
pub mod parallel;
pub mod reorder;
pub mod slice;
pub mod slicer;
pub mod terminal;

pub use analyzer::{Deployment, QueryAnalyzer, SharingPolicy};
pub use assembler::Assembler;
pub use group::{GroupExecution, GroupId, QueryGroup, Selection, SelectionId};
pub use parallel::{ParallelConfig, ParallelEngine, ShardedSlicer};
pub use reorder::ReorderBuffer;
pub use slice::{SealedSlice, SessionGap, SliceData, SliceId, WindowEnd};
pub use slicer::GroupSlicer;
pub use terminal::{GroupPlan, GroupTerminal, RawTerminal};

use std::sync::Arc;

use crate::error::DesisError;
use crate::event::Event;
use crate::metrics::EngineMetrics;
use crate::obs::prof::{self, ProfHandle, Stage};
use crate::obs::MetricsRegistry;
use crate::query::{Query, QueryId, QueryResult, ResultRuns};
use crate::time::Timestamp;

/// Single-node Desis aggregation engine.
///
/// ```
/// use desis_core::prelude::*;
///
/// let queries = vec![
///     Query::new(1, WindowSpec::tumbling_time(1_000)?, AggFunction::Average),
///     Query::new(2, WindowSpec::sliding_time(2_000, 500)?, AggFunction::Max),
/// ];
/// let mut engine = AggregationEngine::new(queries)?;
/// for i in 0..10_000u64 {
///     engine.on_event(&Event::new(i, (i % 4) as u32, i as f64));
/// }
/// engine.on_watermark(10_000);
/// let results = engine.drain_results();
/// assert!(!results.is_empty());
/// # Ok::<(), desis_core::DesisError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AggregationEngine {
    analyzer: QueryAnalyzer,
    /// One terminal per query-group, each slicing the raw stream itself.
    pipelines: Vec<RawTerminal>,
    runs: ResultRuns,
    next_group_id: GroupId,
    registry: Arc<MetricsRegistry>,
    /// The registry's `"seq"` lane; `None` unless the registry is
    /// profiled (clones mint a fresh handle on the lane).
    prof: Option<ProfHandle>,
}

impl AggregationEngine {
    /// Builds an engine with full Desis sharing for `queries`.
    pub fn new(queries: Vec<Query>) -> Result<Self, DesisError> {
        Self::with_analyzer(queries, QueryAnalyzer::default())
    }

    /// Builds an engine with an explicit sharing policy / deployment.
    pub fn with_analyzer(queries: Vec<Query>, analyzer: QueryAnalyzer) -> Result<Self, DesisError> {
        Self::with_registry(queries, analyzer, Arc::new(MetricsRegistry::new()))
    }

    /// Builds an engine publishing observability into a shared `registry`
    /// (cumulative `engine.*` counters on [`AggregationEngine::metrics`],
    /// stage time on the `"seq"` lane if the registry is profiled).
    pub fn with_registry(
        queries: Vec<Query>,
        analyzer: QueryAnalyzer,
        registry: Arc<MetricsRegistry>,
    ) -> Result<Self, DesisError> {
        let mut prof = registry.lane("seq");
        let mut runs = ResultRuns::default();
        runs.install(queries.iter().map(|q| q.id));
        let groups = {
            let _analyze = prof::scope(&mut prof, Stage::Analyzer);
            analyzer.analyze(queries)?
        };
        let next_group_id = groups.len() as GroupId;
        let pipelines = groups.into_iter().map(RawTerminal::new).collect();
        Ok(Self {
            analyzer,
            pipelines,
            runs,
            next_group_id,
            registry,
            prof,
        })
    }

    /// The engine's observability registry.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Number of query-groups.
    pub fn group_count(&self) -> usize {
        self.pipelines.len()
    }

    /// Ingests one event into every query-group.
    #[inline]
    pub fn on_event(&mut self, ev: &Event) {
        for p in &mut self.pipelines {
            {
                let _slice = prof::scope(&mut self.prof, Stage::Slicer);
                p.slicer.on_event(ev, &mut p.sealed);
            }
            Self::assemble(&mut self.prof, p, &mut self.runs);
        }
    }

    /// Advances event time, firing pending punctuations.
    pub fn on_watermark(&mut self, ts: Timestamp) {
        for p in &mut self.pipelines {
            {
                let _slice = prof::scope(&mut self.prof, Stage::Slicer);
                p.slicer.on_watermark(ts, &mut p.sealed);
            }
            Self::assemble(&mut self.prof, p, &mut self.runs);
        }
    }

    #[inline]
    fn assemble(prof: &mut Option<ProfHandle>, p: &mut RawTerminal, runs: &mut ResultRuns) {
        if !p.sealed.is_empty() {
            let _assemble = prof::scope(prof, Stage::Assemble);
            p.assemble(runs.emitted());
            runs.absorb();
        }
    }

    /// Takes all results produced since the last drain, in canonical
    /// `(query, window end, key, window start)` order
    /// ([`crate::query::QueryResult::emit_order`]). The order holds by
    /// construction: each query's results are kept as one run, in which
    /// windows end in time order and each window's keys ascend, and the
    /// runs are concatenated in query-id order.
    pub fn drain_results(&mut self) -> Vec<QueryResult> {
        let out = {
            let _drain = prof::scope(&mut self.prof, Stage::Drain);
            self.runs.drain()
        };
        if let Some(h) = &mut self.prof {
            h.flush();
        }
        out
    }

    /// Adds a query at runtime (Section 3.2). The query starts processing
    /// with the next event; it forms a new query-group (sharing with
    /// running groups would require realigning in-flight windows).
    pub fn add_query(&mut self, query: Query) -> Result<(), DesisError> {
        if self
            .pipelines
            .iter()
            .any(|p| p.slicer.group().query_index(query.id).is_some())
        {
            return Err(DesisError::InvalidQuery(format!(
                "duplicate query id {}",
                query.id
            )));
        }
        let id = query.id;
        let mut groups = {
            let _analyze = prof::scope(&mut self.prof, Stage::Analyzer);
            self.analyzer.analyze(vec![query])?
        };
        let mut group = groups.remove(0);
        group.id = self.next_group_id;
        self.next_group_id += 1;
        self.runs.install([id]);
        self.pipelines.push(RawTerminal::new(group));
        Ok(())
    }

    /// Removes a query at runtime (Section 3.2).
    ///
    /// With `immediate`, in-flight windows of the query are dropped; with
    /// `immediate == false` the query stops opening new windows but its
    /// open windows still produce results ("wait for the last window to
    /// end").
    pub fn remove_query(&mut self, id: QueryId, immediate: bool) -> Result<(), DesisError> {
        for p in &mut self.pipelines {
            if p.slicer.remove_query(id, immediate) {
                self.runs.retire(id);
                return Ok(());
            }
        }
        Err(DesisError::UnknownQuery(id))
    }

    /// Aggregated metrics over all query-groups. The snapshot is also
    /// published into the engine's registry as cumulative `engine.*`
    /// counters, next to gauges of the assemblers' retained state.
    pub fn metrics(&self) -> EngineMetrics {
        let mut m = EngineMetrics::default();
        let mut retained = (0, 0);
        for p in &self.pipelines {
            p.roll_up(&mut m, &mut retained);
        }
        terminal::publish(&m, retained, &self.registry);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggFunction;
    use crate::obs::names;
    use crate::window::WindowSpec;

    fn tumbling(id: u64, len: u64, f: AggFunction) -> Query {
        Query::new(id, WindowSpec::tumbling_time(len).unwrap(), f)
    }

    #[test]
    fn end_to_end_multiple_groups() {
        use crate::predicate::Predicate;
        // Partially overlapping predicates -> two groups.
        let q1 = tumbling(1, 100, AggFunction::Sum).filtered(Predicate::ValueAbove(10.0));
        let q2 = tumbling(2, 100, AggFunction::Sum).filtered(Predicate::ValueBelow(20.0));
        let mut engine = AggregationEngine::new(vec![q1, q2]).unwrap();
        assert_eq!(engine.group_count(), 2);
        engine.on_event(&Event::new(0, 0, 15.0)); // matches both
        engine.on_event(&Event::new(10, 0, 5.0)); // matches only q2
        engine.on_watermark(100);
        let results = engine.drain_results();
        assert_eq!(results.len(), 2);
        let r1 = results.iter().find(|r| r.query == 1).unwrap();
        let r2 = results.iter().find(|r| r.query == 2).unwrap();
        assert_eq!(r1.values, vec![Some(15.0)]);
        assert_eq!(r2.values, vec![Some(20.0)]);
    }

    #[test]
    fn metrics_publish_the_assemblers_retained_state() {
        let sliding = WindowSpec::sliding_time(1_600, 100).unwrap();
        let mut engine =
            AggregationEngine::new(vec![Query::new(1, sliding, AggFunction::Max)]).unwrap();
        for ts in 0..300 {
            engine.on_event(&Event::new(ts * 10, ts as u32 % 3, 1.0));
        }
        engine.metrics();
        let gauges = engine.registry().snapshot().gauges;
        // Sixteen slices per window and three keys: at most 16 suffix
        // maps and the back aggregate.
        assert_eq!(gauges[names::ENGINE_ASSEMBLER_RETAINED_SLICES], 15);
        let cached = gauges[names::ENGINE_ASSEMBLER_CACHED_BUNDLES];
        assert!((1..=51).contains(&cached), "{cached} bundles cached");
    }

    #[test]
    fn add_query_at_runtime() {
        let mut engine = AggregationEngine::new(vec![tumbling(1, 100, AggFunction::Sum)]).unwrap();
        engine.on_event(&Event::new(0, 0, 1.0));
        engine
            .add_query(tumbling(2, 50, AggFunction::Count))
            .unwrap();
        assert!(engine
            .add_query(tumbling(2, 50, AggFunction::Count))
            .is_err());
        engine.on_event(&Event::new(10, 0, 2.0));
        engine.on_watermark(100);
        let results = engine.drain_results();
        assert!(results.iter().any(|r| r.query == 1));
        let r2 = results.iter().find(|r| r.query == 2).unwrap();
        // Query 2 saw only the event at ts=10.
        assert_eq!(r2.values, vec![Some(1.0)]);
    }

    #[test]
    fn remove_query_immediately() {
        let mut engine = AggregationEngine::new(vec![
            tumbling(1, 100, AggFunction::Sum),
            tumbling(2, 100, AggFunction::Count),
        ])
        .unwrap();
        engine.on_event(&Event::new(0, 0, 1.0));
        engine.remove_query(2, true).unwrap();
        assert!(engine.remove_query(99, true).is_err());
        engine.on_event(&Event::new(10, 0, 2.0));
        engine.on_watermark(1_000);
        let results = engine.drain_results();
        assert!(results.iter().all(|r| r.query != 2));
        assert!(results.iter().any(|r| r.query == 1));
    }

    /// A result run holds at most the results since the last drain, and a
    /// removed query's run does not outlive the first drain after it.
    #[test]
    fn a_drain_drops_the_result_run_of_a_removed_query() {
        let mut engine = AggregationEngine::new(vec![
            tumbling(1, 100, AggFunction::Sum),
            tumbling(2, 100, AggFunction::Count),
        ])
        .unwrap();
        engine.on_event(&Event::new(0, 0, 1.0));
        engine.on_watermark(100);
        engine.remove_query(2, true).unwrap();
        assert_eq!(engine.drain_results().len(), 2);
        assert_eq!(engine.runs.runs(), 1);
        assert!(engine.runs.installed(1) && !engine.runs.installed(2));
    }

    #[test]
    fn remove_query_draining_finishes_open_windows() {
        let mut engine = AggregationEngine::new(vec![
            tumbling(1, 100, AggFunction::Sum),
            tumbling(2, 100, AggFunction::Count),
        ])
        .unwrap();
        engine.on_event(&Event::new(0, 0, 1.0));
        engine.remove_query(2, false).unwrap();
        engine.on_event(&Event::new(10, 0, 2.0));
        engine.on_watermark(1_000);
        let results = engine.drain_results();
        // The open window [0,100) of query 2 still completes...
        let q2: Vec<_> = results.iter().filter(|r| r.query == 2).collect();
        assert_eq!(q2.len(), 1);
        assert_eq!(q2[0].window_start, 0);
        // ...but no later windows are created.
        assert!(results
            .iter()
            .filter(|r| r.query == 2)
            .all(|r| r.window_start == 0));
    }

    #[test]
    fn metrics_aggregate_over_groups() {
        let mut engine = AggregationEngine::new(vec![
            tumbling(1, 100, AggFunction::Average),
            tumbling(2, 100, AggFunction::Sum),
        ])
        .unwrap();
        for ts in 0..100 {
            engine.on_event(&Event::new(ts, 0, 1.0));
        }
        engine.on_watermark(100);
        let m = engine.metrics();
        assert_eq!(m.events, 100);
        assert_eq!(m.calculations, 200); // sum + count shared
        assert_eq!(m.slices, 1);
        assert_eq!(m.results, 2);
    }

    #[test]
    fn doc_example_compiles_and_runs() {
        let queries = vec![
            Query::new(
                1,
                WindowSpec::tumbling_time(1_000).unwrap(),
                AggFunction::Average,
            ),
            Query::new(
                2,
                WindowSpec::sliding_time(2_000, 500).unwrap(),
                AggFunction::Max,
            ),
        ];
        let mut engine = AggregationEngine::new(queries).unwrap();
        for i in 0..10_000u64 {
            engine.on_event(&Event::new(i, (i % 4) as u32, i as f64));
        }
        engine.on_watermark(10_000);
        assert!(!engine.drain_results().is_empty());
    }
}
