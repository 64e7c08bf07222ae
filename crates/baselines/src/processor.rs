//! The common interface every evaluated system implements, so the
//! benchmark harness (and the decentralized substrate) can swap systems
//! freely.

use desis_core::event::Event;
use desis_core::metrics::EngineMetrics;
use desis_core::query::QueryResult;
use desis_core::time::Timestamp;

/// A single-node multi-query stream processor.
pub trait Processor {
    /// Short system name as used in the paper's figures
    /// (`Desis`, `DeSW`, `Scotty`, `DeBucket`, `CeBuffer`).
    fn name(&self) -> &'static str;

    /// Ingests one event.
    fn on_event(&mut self, ev: &Event);

    /// Advances event time without data.
    fn on_watermark(&mut self, ts: Timestamp);

    /// Takes all results produced since the last drain.
    fn drain_results(&mut self) -> Vec<QueryResult>;

    /// Metrics snapshot (events, calculations, slices, results).
    fn metrics(&self) -> EngineMetrics;
}
