//! Cross-shard merging of *unfixed* (session / user-defined) window
//! groups: [`UnfixedMerger`] with shards as its sources. A key-sharded
//! slicer sees only its shard's events, so global sessions arrive as
//! per-shard fragments and the inlet broadcasts markers so that
//! user-defined windows close at the same stream position on every
//! shard; the collector reports each shard's clear frontiers at every
//! watermark barrier and marks a panicked shard dead.

pub use crate::engine::merge::UnfixedMerger;

/// The unfixed merger over shard indices.
pub type UnfixedShardMerger = UnfixedMerger<usize>;
