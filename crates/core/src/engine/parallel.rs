//! Key-sharded parallel engine (ROADMAP "as fast as the hardware
//! allows": sharding + batching).
//!
//! Scotty-style slicing is embarrassingly parallel across keys: slice
//! partials merge associatively and every key's events fold into exactly
//! one shard, so per-key operator states are computed in the same order
//! as a sequential engine and merging shard partials per slice
//! reconstructs the sequential slice exactly. [`ParallelEngine`]
//! hash-partitions events by `key % shards` across N worker threads,
//! each running one slicer per group, and a shard-merging window
//! assembler recombines the per-shard slice partials before emission.
//!
//! **Where disorder is handled.** Once, at the inlet on the caller's
//! thread: with [`ParallelConfig::lateness`] set, every batch passes one
//! [`super::ReorderBuffer`] before it is partitioned, so every shard
//! receives its part of the one ordered stream a sequential engine
//! behind the same buffer would see — the same events dropped as too
//! late, each counted once ([`ParallelEngine::late_dropped`]).
//!
//! **What shards.** *Fixed time* windows
//! ([`crate::window::WindowSpec::has_precomputable_puncts`]) slice at
//! data-independent instants on every shard and merge by slice-end
//! timestamp. *Session* and *user-defined* windows define their
//! boundaries over the whole stream, so their per-shard slicers see only
//! fragments; the collector's [`crate::engine::merge::GroupMerger`] of
//! such a group (the merge module's one unfixed merger, over shard
//! indices) span-overlap-merges per-shard session fragments (gated by
//! per-shard *clear frontiers* so no session is released before the
//! sequential engine would have closed it) and aligns user-defined
//! windows, whose boundary markers the inlet broadcasts to every shard.
//! *Count* windows are placed on the ordered stream alone (paper
//! Sections 4.1–4.2): the inlet evaluates each count group's selection
//! predicates once per event and the group's slicer, on the driver
//! thread, takes the matches as each batch leaves for the shards — it
//! slices while they do, and is advanced only at watermarks.
//!
//! **Determinism.** Watermarks are barriers: [`ParallelEngine::on_watermark`]
//! waits until every live shard acknowledged the watermark, so the set
//! of results visible to a drain after a watermark depends only on the
//! ingested events and watermarks — never on thread scheduling. Drained
//! results leave in the canonical `(query, window end, key, window
//! start)` order ([`crate::query::QueryResult::emit_order`]) by
//! construction, as the sequential engine's do: the collector keeps one
//! run of results per query, in which windows end in time order and each
//! window's keys ascend, and a drain concatenates the runs in query-id
//! order, sorting only a run that arrived out of order. Parallel runs are
//! byte-reproducible.
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

/// The one [`super::Assembler`], under the name the repo benchmark
/// imports; ROADMAP item 12's next benchmark change imports `Assembler`
/// and removes this alias.
pub use super::assembler::Assembler as FixedAssembler;

/// Tunables of the parallel engine.
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// Worker shard count (clamped to at least 1).
    pub shards: usize,
    /// Events accumulated at the inlet before a batch is sent to the
    /// shards (amortizes channel overhead).
    pub batch_size: usize,
    /// Allowed out-of-orderness: `Some(l)` orders the stream at the
    /// inlet through one reorder buffer of lateness `l`, in front of the
    /// shards and the count groups alike, so results and drops are those
    /// of that buffer in front of [`super::AggregationEngine`]; `None`
    /// assumes timestamp-ordered input, like the sequential engine.
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
