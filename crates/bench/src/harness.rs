//! The context one `experiments` process runs in: everything its flags
//! can set, built once and borrowed by every figure generator.

use std::sync::Arc;

use desis_core::error::DesisError;
use desis_core::event::Event;
use desis_core::obs::trace::TraceCollector;
use desis_core::obs::{names, MetricsRegistry};
use desis_core::query::Query;
use desis_net::cluster::{run_cluster, ClusterConfig, ClusterReport};
use desis_net::fault::FaultPlan;
use desis_net::node::DistributedSystem;
use desis_net::topology::Topology;

use crate::measure::Scale;

/// What `--scale`, `--metrics-out`, `--profile`, `--trace-out`,
/// `--faults` and `--shards` resolve to. Nothing a figure starts looks any of it up
/// ambiently: clusters get it through [`Harness::cluster`], single-node
/// measurements through [`Harness::registry`].
#[derive(Debug, Clone)]
pub struct Harness {
    /// Workload scale.
    pub scale: Scale,
    /// Accumulates every run of the process: cluster reports under
    /// `cluster.<System>.`, single-node runs under `single.<System>.`.
    /// If it is profiled, so is every run, on the same clock.
    pub registry: Arc<MetricsRegistry>,
    /// Collector every cluster records provenance spans into.
    pub trace: Option<TraceCollector>,
    /// Fault plan injected into every cluster.
    pub faults: Option<FaultPlan>,
    /// Engine shards per local node of every cluster.
    pub shards: usize,
}

impl Harness {
    /// Laptop scale, an empty registry, no tracing, no faults, one shard.
    pub fn quick() -> Self {
        Harness {
            scale: Scale::Quick,
            registry: Arc::new(MetricsRegistry::new()),
            trace: None,
            faults: None,
            shards: 1,
        }
    }

    /// [`ClusterConfig::new`] carrying this harness's collector, fault
    /// plan, shard count and profiling clock.
    pub fn cluster(
        &self,
        system: DistributedSystem,
        queries: Vec<Query>,
        topology: Topology,
    ) -> ClusterConfig {
        let mut cfg = ClusterConfig::new(system, queries, topology);
        cfg.trace = self.trace.clone();
        cfg.faults = self.faults.clone();
        cfg.shards = self.shards;
        cfg.profile = self.registry.prof_clock().cloned();
        cfg
    }

    /// [`run_cluster`], with the report's metrics merged into
    /// [`Harness::registry`] under the system's label (counters of
    /// repeated runs add up).
    pub fn run_cluster(
        &self,
        cfg: ClusterConfig,
        feeds: Vec<Vec<Event>>,
    ) -> Result<ClusterReport, DesisError> {
        let prefix = names::cluster_system_prefix(cfg.system.label());
        let report = run_cluster(cfg, feeds)?;
        self.registry.merge_snapshot(&prefix, &report.metrics);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desis_core::aggregate::AggFunction;
    use desis_core::obs::trace::DEFAULT_RING_CAPACITY;
    use desis_core::window::WindowSpec;

    #[test]
    fn cluster_carries_trace_faults_and_shards_and_merges_the_report() {
        let harness = Harness {
            trace: Some(TraceCollector::new(1, DEFAULT_RING_CAPACITY)),
            faults: Some(FaultPlan::new(7)),
            shards: 2,
            ..Harness::quick()
        };
        let queries = vec![Query::new(
            1,
            WindowSpec::tumbling_time(100).unwrap(),
            AggFunction::Sum,
        )];
        let cfg = harness.cluster(DistributedSystem::Desis, queries, Topology::star(1));
        assert!(cfg.trace.is_some());
        assert_eq!(cfg.faults, harness.faults);
        assert_eq!(cfg.shards, 2);
        assert!(cfg.profile.is_none(), "the harness registry is unprofiled");

        let feed: Vec<Event> = (0..1_000).map(|i| Event::new(i, 0, 1.0)).collect();
        let report = harness.run_cluster(cfg, vec![feed]).unwrap();
        assert_eq!(report.events, 1_000);
        let snap = harness.registry.snapshot();
        let prefix = names::cluster_system_prefix(DistributedSystem::Desis.label());
        for (name, value) in &report.metrics.counters {
            assert_eq!(snap.counters[&format!("{prefix}{name}")], *value);
        }
        assert!(snap.counters.keys().all(|k| k.starts_with(&prefix)));
        // The harness's collector, not a fresh one, saw the run.
        let timeline = harness.trace.as_ref().unwrap().drain_timeline();
        assert!(timeline.complete_chains() > 0);
    }
}
