//! The shard-side worker of the parallel engine: the messages the inlet
//! sends a shard, the items a shard hands back to the collector, and the
//! worker loop (reorder → one slicer per sharded group → handoff inbox).

use std::sync::Arc;

use super::handoff::{Inbox, InboxGuard};
use crate::engine::reorder::ReorderBuffer;
use crate::engine::slice::SealedSlice;
use crate::engine::slicer::GroupSlicer;
use crate::engine::QueryGroup;
use crate::event::Event;
use crate::metrics::EngineMetrics;
use crate::obs::prof::{self, ProfHandle, Stage};
use crate::obs::trace::TraceCollector;
use crate::predicate::Predicate;
use crate::query::QueryId;
use crate::time::{DurationMs, Timestamp};

/// Messages from the inlet to one shard worker.
#[derive(Debug)]
pub(super) enum ShardMsg {
    /// A key-partitioned event batch, in ingestion order.
    Batch(Vec<Event>),
    /// A key-partitioned batch tagged with global inlet sequence
    /// numbers, sent instead of [`ShardMsg::Batch`] while count-query
    /// filters are installed (the tags let the collector replay
    /// forwarded events in global ingest order).
    SeqBatch(Vec<(u64, Event)>),
    /// Advance event time (punctuation-seals idle spans); the worker
    /// acknowledges with a frontier item.
    Watermark(Timestamp),
    /// Remove a query at runtime.
    Remove { id: QueryId, immediate: bool },
    /// Add a query-group at runtime: one more slicer on this shard.
    AddGroup(QueryGroup),
    /// Install a count-query filter: forward events matching any of the
    /// predicates to the collector's replay slot.
    AddCountFilter(usize, Vec<Predicate>),
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
    /// Events matching a count query's selections, tagged with inlet
    /// sequence numbers, for the collector's replay slot.
    CountEvents {
        replay: usize,
        items: Vec<(u64, Event)>,
    },
    /// The shard has processed every event up to this watermark.
    Frontier(Timestamp),
    /// Final per-shard metrics, sent right before a clean exit.
    Done {
        metrics: EngineMetrics,
        late_dropped: u64,
    },
}

/// Feeds a run of in-order events through every slicer of the shard and
/// pushes the sealed slices, one item per group.
///
/// Marker events are broadcast by the inlet so every shard closes
/// user-defined windows at the same stream position: a marker whose key
/// hashes to *another* shard drives only the window *boundaries* of
/// unfixed groups ([`GroupSlicer::on_marker`]) — its data belongs to the
/// owning shard, which processes it as an ordinary event.
fn feed_events(
    shard: usize,
    shards_total: usize,
    slicers: &mut [GroupSlicer],
    outs: &mut Vec<Vec<SealedSlice>>,
    guard: &InboxGuard<ShardItem>,
    events: &[Event],
) {
    outs.resize_with(slicers.len(), Vec::new);
    let foreign_marker = events
        .iter()
        .any(|ev| ev.marker.is_some() && (ev.key as usize) % shards_total != shard);
    if foreign_marker {
        for ev in events {
            let owned = ev.marker.is_none() || (ev.key as usize) % shards_total == shard;
            for (group, slicer) in slicers.iter_mut().enumerate() {
                if owned {
                    slicer.on_event(ev, &mut outs[group]);
                } else if slicer.group().has_unfixed_windows() {
                    slicer.on_marker(ev, &mut outs[group]);
                }
            }
        }
    } else {
        for (group, slicer) in slicers.iter_mut().enumerate() {
            for ev in events {
                slicer.on_event(ev, &mut outs[group]);
            }
        }
    }
    for (group, out) in outs.iter_mut().enumerate() {
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

/// The shard worker loop: reorder (optional) → one slicer per sharded
/// group (+ count-query filters) → handoff inbox. Runs on its own
/// thread; panics anywhere in the loop are reported by the guard and
/// degrade only this shard.
pub(super) fn run_shard(
    shard: usize,
    shards_total: usize,
    mut slicers: Vec<GroupSlicer>,
    lateness: Option<DurationMs>,
    rx: crossbeam_channel::Receiver<ShardMsg>,
    inbox: Arc<Inbox<ShardItem>>,
    mut prof: Option<ProfHandle>,
) {
    let guard = InboxGuard::new(inbox, shard);
    let mut reorder = lateness.map(ReorderBuffer::new);
    let mut ordered: Vec<Event> = Vec::new();
    let mut scratch: Vec<SealedSlice> = Vec::new();
    let mut outs: Vec<Vec<SealedSlice>> = Vec::new();
    let mut count_filters: Vec<(usize, Vec<Predicate>)> = Vec::new();
    loop {
        let msg = {
            let _idle = prof::scope(&mut prof, Stage::Idle);
            match rx.recv() {
                Ok(msg) => msg,
                Err(_) => break,
            }
        };
        let batch: Option<Vec<Event>> = match msg {
            ShardMsg::Batch(events) => Some(events),
            ShardMsg::SeqBatch(items) => {
                // Count windows advance only on selection matches, so
                // forwarding just the matching events (in sequence
                // order) is result-preserving. Broadcast markers are
                // forwarded by their owning shard only.
                let _filter = prof::scope(&mut prof, Stage::CountFilter);
                for (replay, predicates) in &count_filters {
                    let matched: Vec<(u64, Event)> = items
                        .iter()
                        .filter(|(_, ev)| {
                            (ev.marker.is_none() || (ev.key as usize) % shards_total == shard)
                                && predicates.iter().any(|p| p.matches(ev))
                        })
                        .copied()
                        .collect();
                    if !matched.is_empty() {
                        guard.push(ShardItem::CountEvents {
                            replay: *replay,
                            items: matched,
                        });
                    }
                }
                Some(items.into_iter().map(|(_, ev)| ev).collect())
            }
            ShardMsg::Watermark(ts) => {
                if let Some(rb) = &mut reorder {
                    {
                        let _reorder = prof::scope(&mut prof, Stage::Reorder);
                        rb.advance(ts, &mut ordered);
                    }
                    let _slice = prof::scope(&mut prof, Stage::Slicer);
                    feed_events(
                        shard,
                        shards_total,
                        &mut slicers,
                        &mut outs,
                        &guard,
                        &ordered,
                    );
                    ordered.clear();
                }
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
                None
            }
            ShardMsg::Remove { id, immediate } => {
                for slicer in &mut slicers {
                    slicer.remove_query(id, immediate);
                }
                None
            }
            ShardMsg::AddGroup(group) => {
                slicers.push(GroupSlicer::new(group));
                None
            }
            ShardMsg::AddCountFilter(replay, predicates) => {
                count_filters.push((replay, predicates));
                None
            }
            ShardMsg::Install(collector, node) => {
                for slicer in &mut slicers {
                    slicer.set_recorder(collector.recorder(node));
                }
                None
            }
            ShardMsg::Flush => break,
            #[cfg(test)]
            ShardMsg::Panic => std::panic::panic_any("injected shard panic"),
        };
        if let Some(events) = batch {
            if let Some(rb) = &mut reorder {
                {
                    let _reorder = prof::scope(&mut prof, Stage::Reorder);
                    for ev in events {
                        rb.push(ev, &mut ordered);
                    }
                }
                let _slice = prof::scope(&mut prof, Stage::Slicer);
                feed_events(
                    shard,
                    shards_total,
                    &mut slicers,
                    &mut outs,
                    &guard,
                    &ordered,
                );
                ordered.clear();
            } else {
                let _slice = prof::scope(&mut prof, Stage::Slicer);
                feed_events(
                    shard,
                    shards_total,
                    &mut slicers,
                    &mut outs,
                    &guard,
                    &events,
                );
            }
        }
    }
    // Events still buffered past the final watermark fold in best-effort
    // (their slices seal only if a punctuation is crossed) — the same
    // contract as draining a sequential engine without a final watermark.
    if let Some(rb) = &mut reorder {
        {
            let _reorder = prof::scope(&mut prof, Stage::Reorder);
            rb.flush(&mut ordered);
        }
        let _slice = prof::scope(&mut prof, Stage::Slicer);
        feed_events(
            shard,
            shards_total,
            &mut slicers,
            &mut outs,
            &guard,
            &ordered,
        );
        ordered.clear();
    }
    // End of stream: no slot can open another session fragment, so
    // closed session queries clear all the way out.
    push_clears(&slicers, &guard, Timestamp::MAX);
    let mut metrics = EngineMetrics::default();
    for slicer in &slicers {
        metrics.absorb(slicer.metrics());
    }
    let late_dropped = reorder.as_ref().map_or(0, ReorderBuffer::late_dropped);
    guard.push(ShardItem::Done {
        metrics,
        late_dropped,
    });
    guard.finish();
}
