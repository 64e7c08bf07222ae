//! Engine metrics.
//!
//! These counters back the paper's evaluation metrics: the number of
//! executed operator calculations (Figure 9b/9d/9f), the number of slices
//! produced (Figure 8b/8d), events processed, and results emitted.
//!
//! [`EngineMetrics`] is the *snapshot* type of the engine-side counters:
//! single-threaded components (slicers, the naive baselines) accumulate
//! plain fields on the hot path, and snapshots are summed with
//! [`EngineMetrics::absorb`] and published into the unified
//! [`MetricsRegistry`] with
//! [`EngineMetrics::publish`] — so one JSON dump covers engine, network,
//! and latency instruments alike.

use crate::obs::MetricsRegistry;

/// Plain (non-atomic) counters owned by a single-threaded engine instance.
/// Decentralized deployments aggregate one `EngineMetrics` per node.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct EngineMetrics {
    /// Events ingested.
    pub events: u64,
    /// Incremental operator executions ("calculations", Figure 9).
    pub calculations: u64,
    /// Slices sealed (Figure 8b/8d counts slices per minute).
    pub slices: u64,
    /// Final window results emitted (one per query per key per window).
    pub results: u64,
    /// Windows terminated.
    pub windows_closed: u64,
    /// Slice-partial merge operations performed during window assembly.
    pub merges: u64,
}

impl EngineMetrics {
    /// Adds another metrics snapshot into this one (for summing across
    /// nodes of a cluster).
    pub fn absorb(&mut self, other: &EngineMetrics) {
        self.events += other.events;
        self.calculations += other.calculations;
        self.slices += other.slices;
        self.results += other.results;
        self.windows_closed += other.windows_closed;
        self.merges += other.merges;
    }

    /// Publishes the snapshot into `registry` under `prefix` (e.g.
    /// `"engine"` registers `engine.events`, `engine.calculations`, ...).
    ///
    /// Registry counters are raised to the snapshot values, so
    /// republishing a growing cumulative snapshot is idempotent.
    pub fn publish(&self, registry: &MetricsRegistry, prefix: &str) {
        for (field, value) in self.fields() {
            registry
                .counter(&format!("{prefix}.{field}"))
                .raise_to(value);
        }
    }

    fn fields(&self) -> [(&'static str, u64); 6] {
        [
            ("events", self.events),
            ("calculations", self.calculations),
            ("slices", self.slices),
            ("results", self.results),
            ("windows_closed", self.windows_closed),
            ("merges", self.merges),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_fields() {
        let mut a = EngineMetrics {
            events: 1,
            calculations: 2,
            slices: 3,
            results: 4,
            windows_closed: 5,
            merges: 6,
        };
        let b = a.clone();
        a.absorb(&b);
        assert_eq!(a.events, 2);
        assert_eq!(a.calculations, 4);
        assert_eq!(a.slices, 6);
        assert_eq!(a.results, 8);
        assert_eq!(a.windows_closed, 10);
        assert_eq!(a.merges, 12);
    }

    #[test]
    fn publish_is_idempotent_per_value() {
        let registry = MetricsRegistry::new();
        let m = EngineMetrics {
            events: 10,
            results: 3,
            ..Default::default()
        };
        m.publish(&registry, "engine");
        m.publish(&registry, "engine");
        let snap = registry.snapshot();
        assert_eq!(snap.counters["engine.events"], 10);
        assert_eq!(snap.counters["engine.results"], 3);
    }
}
