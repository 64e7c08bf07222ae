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
//! fragments; the collector-side [`unfixed::UnfixedShardMerger`] (the
//! merge module's one unfixed merger, over shard indices)
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

use std::sync::Arc;

use crate::obs::MetricsRegistry;
use crate::time::DurationMs;

mod engine;
pub mod handoff;
mod shard;
mod sharded;
#[cfg(test)]
mod tests;
pub mod unfixed;

pub use engine::ParallelEngine;
pub use sharded::ShardedSlicer;

/// The collector assembles shard-merged slices with the same time-range
/// assembler the root uses over child-merged slices.
pub use super::merge::TimeAssembler as FixedAssembler;

/// Tunables of the parallel engine.
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// Worker shard count (clamped to at least 1).
    pub shards: usize,
    /// Events accumulated at the inlet before a batch is sent to the
    /// shards (amortizes channel overhead).
    pub batch_size: usize,
    /// Allowed out-of-orderness: `Some(l)` runs a reorder buffer of
    /// lateness `l` in front of every shard's slicers (and the
    /// collector-side count replays); `None` assumes timestamp-ordered
    /// input, like [`super::AggregationEngine`].
    pub lateness: Option<DurationMs>,
    /// Registry the sharded slicer counts into: the per-shard inlet
    /// counters live there from spawn, and if it is profiled the
    /// collector and the shard workers time their stages on its
    /// `driver` / `shard<i>` lanes ([`crate::obs::prof`]). `None` gives
    /// the slicer a private, unprofiled registry.
    pub registry: Option<Arc<MetricsRegistry>>,
}

impl ParallelConfig {
    /// A configuration with `shards` workers and default batching.
    pub fn new(shards: usize) -> Self {
        Self {
            shards: shards.max(1),
            batch_size: 256,
            lateness: None,
            registry: None,
        }
    }
}
