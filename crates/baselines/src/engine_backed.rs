//! Systems backed by the Desis aggregation engine with restricted sharing
//! policies (paper Section 6.1.1).
//!
//! * **Desis** — full sharing across window types, measures, and functions.
//! * **DeSW** — "similar to Scotty": shares only between queries with the
//!   same aggregation functions *and* window measures. Built on the Desis
//!   architecture, exactly as in the paper.
//! * **Scotty** — general stream slicing that shares between queries with
//!   the same aggregation functions (any window type or measure); a
//!   re-implementation of the Scotty baseline's sharing capability.

use std::sync::Arc;

use desis_core::engine::{AggregationEngine, Deployment, QueryAnalyzer, SharingPolicy};
use desis_core::error::DesisError;
use desis_core::event::Event;
use desis_core::metrics::EngineMetrics;
use desis_core::obs::MetricsRegistry;
use desis_core::query::{Query, QueryResult};
use desis_core::time::Timestamp;

use crate::processor::Processor;

/// The registry an engine publishes its `engine.*` counters into and,
/// if it is profiled, times its stages against.
type Registry = Arc<MetricsRegistry>;

/// An engine-backed system with a fixed name and sharing policy.
#[derive(Debug, Clone)]
pub struct EngineBacked {
    name: &'static str,
    engine: AggregationEngine,
}

impl EngineBacked {
    fn build(
        name: &'static str,
        policy: SharingPolicy,
        queries: Vec<Query>,
        registry: Registry,
    ) -> Result<Self, DesisError> {
        let analyzer = QueryAnalyzer::new(policy, Deployment::Centralized);
        let engine = AggregationEngine::with_registry(queries, analyzer, registry)?;
        Ok(Self { name, engine })
    }

    /// Full Desis sharing.
    pub fn desis(queries: Vec<Query>, registry: Registry) -> Result<Self, DesisError> {
        Self::build("Desis", SharingPolicy::Full, queries, registry)
    }

    /// DeSW: sharing within identical (functions, measure) only.
    pub fn desw(queries: Vec<Query>, registry: Registry) -> Result<Self, DesisError> {
        let policy = SharingPolicy::PerFunctionAndMeasure;
        Self::build("DeSW", policy, queries, registry)
    }

    /// Scotty-style: sharing within identical functions only.
    pub fn scotty(queries: Vec<Query>, registry: Registry) -> Result<Self, DesisError> {
        Self::build("Scotty", SharingPolicy::PerFunction, queries, registry)
    }

    /// Number of query-groups the analyzer produced — the paper's measure
    /// of how much sharing each system achieves.
    pub fn group_count(&self) -> usize {
        self.engine.group_count()
    }
}

impl Processor for EngineBacked {
    fn name(&self) -> &'static str {
        self.name
    }

    fn on_event(&mut self, ev: &Event) {
        self.engine.on_event(ev);
    }

    fn on_watermark(&mut self, ts: Timestamp) {
        self.engine.on_watermark(ts);
    }

    fn drain_results(&mut self) -> Vec<QueryResult> {
        self.engine.drain_results()
    }

    fn metrics(&self) -> EngineMetrics {
        self.engine.metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desis_core::aggregate::AggFunction;
    use desis_core::window::WindowSpec;

    fn queries() -> Vec<Query> {
        vec![
            Query::new(
                1,
                WindowSpec::tumbling_time(100).unwrap(),
                AggFunction::Average,
            ),
            Query::new(2, WindowSpec::tumbling_time(100).unwrap(), AggFunction::Sum),
            Query::new(3, WindowSpec::tumbling_count(10).unwrap(), AggFunction::Sum),
        ]
    }

    #[test]
    fn group_counts_reflect_sharing_capability() {
        // Desis: one group. Scotty: avg | sum+sum(count) -> 2 groups.
        // DeSW: avg | sum | sum-count-measure -> 3 groups.
        assert_eq!(
            EngineBacked::desis(queries(), Arc::default())
                .unwrap()
                .group_count(),
            1
        );
        assert_eq!(
            EngineBacked::scotty(queries(), Arc::default())
                .unwrap()
                .group_count(),
            2
        );
        assert_eq!(
            EngineBacked::desw(queries(), Arc::default())
                .unwrap()
                .group_count(),
            3
        );
    }

    #[test]
    fn all_policies_produce_identical_results() {
        let mut systems = vec![
            EngineBacked::desis(queries(), Arc::default()).unwrap(),
            EngineBacked::desw(queries(), Arc::default()).unwrap(),
            EngineBacked::scotty(queries(), Arc::default()).unwrap(),
        ];
        for sys in &mut systems {
            for ts in 0..500u64 {
                sys.on_event(&Event::new(ts, (ts % 3) as u32, ts as f64));
            }
            sys.on_watermark(1_000);
        }
        let mut all: Vec<Vec<QueryResult>> = systems
            .iter_mut()
            .map(|s| {
                let mut r = s.drain_results();
                r.sort_by(|a, b| {
                    (a.query, a.key, a.window_start).cmp(&(b.query, b.key, b.window_start))
                });
                r
            })
            .collect();
        let reference = all.remove(0);
        for other in all {
            assert_eq!(reference, other);
        }
    }

    #[test]
    fn calculations_differ_by_policy() {
        let mut desis = EngineBacked::desis(queries(), Arc::default()).unwrap();
        let mut desw = EngineBacked::desw(queries(), Arc::default()).unwrap();
        for ts in 0..100u64 {
            let ev = Event::new(ts, 0, 1.0);
            desis.on_event(&ev);
            desw.on_event(&ev);
        }
        // Desis shares sum+count across all three queries; DeSW executes
        // per-group operators.
        assert!(desis.metrics().calculations < desw.metrics().calculations);
    }
}
