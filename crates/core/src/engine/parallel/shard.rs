//! The shard-side worker of the parallel engine: the messages the inlet
//! sends a shard, the items a shard hands back to the collector, and the
//! worker loop (one slicer per sharded group → handoff inbox).

use std::sync::Arc;

use super::handoff::{Inbox, InboxGuard};
use crate::engine::slice::SealedSlice;
use crate::engine::slicer::GroupSlicer;
use crate::engine::QueryGroup;
use crate::event::Event;
use crate::metrics::EngineMetrics;
use crate::obs::prof::{self, ProfHandle, Stage};
use crate::obs::trace::TraceCollector;
use crate::query::QueryId;
use crate::time::Timestamp;

/// Messages from the inlet to one shard worker.
#[derive(Debug)]
pub(super) enum ShardMsg {
    /// A key-partitioned event batch, in timestamp order.
    Batch(Vec<Event>),
    /// Advance event time (punctuation-seals idle spans); the worker
    /// acknowledges with a frontier item.
    Watermark(Timestamp),
    /// Remove a query at runtime.
    Remove { id: QueryId, immediate: bool },
    /// Add a query-group at runtime: one more slicer on this shard.
    AddGroup(QueryGroup),
    /// Enable causal tracing: mint one recorder per slicer for `node`.
    Install(TraceCollector, u32),
    /// End of stream: report metrics and exit cleanly.
    Flush,
    /// Test-only: make the worker panic, exercising the degraded-shard
    /// path without a contrived data-dependent panic.
    #[cfg(test)]
    Panic,
}

/// Items a shard worker hands to the collector.
#[derive(Debug)]
pub(super) enum ShardItem {
    /// Sealed slices of one sharded group (index into the sharded
    /// group list).
    Slices {
        group: usize,
        slices: Vec<SealedSlice>,
    },
    /// Per-session-query clear frontiers of one unfixed group, reported
    /// at every watermark (floor = the watermark) and at flush
    /// (floor = `Timestamp::MAX`): no session fragment starting before
    /// its query's clear can still arrive from this shard.
    Clears {
        group: usize,
        clears: Vec<(usize, Timestamp)>,
    },
    /// The shard has processed every event up to this watermark.
    Frontier(Timestamp),
    /// Final per-shard metrics, sent right before a clean exit.
    Done(EngineMetrics),
}

/// Feeds a batch of in-order events through every slicer of the shard,
/// one run per group, and pushes the sealed slices, one item per group.
///
/// Marker events are broadcast by the inlet so every shard closes
/// user-defined windows at the same stream position: a marker whose key
/// hashes to *another* shard cuts the batch and drives only the window
/// *boundaries* of unfixed groups ([`GroupSlicer::on_marker`]) — its data
/// belongs to the owning shard, which slices it as an ordinary event.
fn feed_events(
    shard: usize,
    shards_total: usize,
    slicers: &mut [GroupSlicer],
    out: &mut Vec<SealedSlice>,
    guard: &InboxGuard<ShardItem>,
    events: &[Event],
) {
    let foreign = |ev: &Event| ev.marker.is_some() && (ev.key as usize) % shards_total != shard;
    for (group, slicer) in slicers.iter_mut().enumerate() {
        let unfixed = slicer.group().has_unfixed_windows();
        for piece in events.split_inclusive(foreign) {
            let (run, marker) = match piece.split_last() {
                Some((last, run)) if foreign(last) => (run, Some(last)),
                _ => (piece, None),
            };
            slicer.on_run(run, out);
            if let Some(marker) = marker.filter(|_| unfixed) {
                slicer.on_marker(marker, out);
            }
        }
        if !out.is_empty() {
            guard.push(ShardItem::Slices {
                group,
                slices: std::mem::take(out),
            });
        }
    }
}

/// Reports the clear frontiers of every unfixed group on this shard
/// (see [`ShardItem::Clears`]).
fn push_clears(slicers: &[GroupSlicer], guard: &InboxGuard<ShardItem>, floor: Timestamp) {
    for (group, slicer) in slicers.iter().enumerate() {
        if slicer.group().has_unfixed_windows() {
            guard.push(ShardItem::Clears {
                group,
                clears: slicer.unfixed_clears(floor),
            });
        }
    }
}

/// The shard worker loop: one slicer per sharded group → handoff inbox.
/// Batches arrive in timestamp order (the inlet reorders). Runs on its
/// own thread; panics anywhere in the loop are reported by the guard and
/// degrade only this shard.
pub(super) fn run_shard(
    shard: usize,
    shards_total: usize,
    mut slicers: Vec<GroupSlicer>,
    rx: crossbeam_channel::Receiver<ShardMsg>,
    inbox: Arc<Inbox<ShardItem>>,
    mut prof: Option<ProfHandle>,
) {
    let guard = InboxGuard::new(inbox, shard);
    let mut scratch: Vec<SealedSlice> = Vec::new();
    loop {
        let msg = {
            let _idle = prof::scope(&mut prof, Stage::Idle);
            match rx.recv() {
                Ok(msg) => msg,
                Err(_) => break,
            }
        };
        match msg {
            ShardMsg::Batch(events) => {
                let _slice = prof::scope(&mut prof, Stage::Slicer);
                feed_events(
                    shard,
                    shards_total,
                    &mut slicers,
                    &mut scratch,
                    &guard,
                    &events,
                );
            }
            ShardMsg::Watermark(ts) => {
                let _slice = prof::scope(&mut prof, Stage::Slicer);
                for (group, slicer) in slicers.iter_mut().enumerate() {
                    slicer.on_watermark(ts, &mut scratch);
                    if !scratch.is_empty() {
                        guard.push(ShardItem::Slices {
                            group,
                            slices: std::mem::take(&mut scratch),
                        });
                    }
                }
                push_clears(&slicers, &guard, ts);
                guard.push(ShardItem::Frontier(ts));
            }
            ShardMsg::Remove { id, immediate } => {
                for slicer in &mut slicers {
                    slicer.remove_query(id, immediate);
                }
            }
            ShardMsg::AddGroup(group) => slicers.push(GroupSlicer::new(group)),
            ShardMsg::Install(collector, node) => {
                for slicer in &mut slicers {
                    slicer.set_recorder(collector.recorder(node));
                }
            }
            ShardMsg::Flush => break,
            #[cfg(test)]
            ShardMsg::Panic => std::panic::panic_any("injected shard panic"),
        }
    }
    // End of stream: no slot can open another session fragment, so
    // closed session queries clear all the way out.
    push_clears(&slicers, &guard, Timestamp::MAX);
    let mut metrics = EngineMetrics::default();
    for slicer in &slicers {
        metrics.absorb(slicer.metrics());
    }
    guard.push(ShardItem::Done(metrics));
    guard.finish();
}
