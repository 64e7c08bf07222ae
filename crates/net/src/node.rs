//! Node runtimes: local, intermediate, and root workers (paper Sections
//! 2.4 and 5).
//!
//! Workers are plain structs driven by messages/events, so they are unit
//! testable without threads; `cluster` wires them onto links and threads.
//!
//! * **Local** nodes ingest a data stream. Under Desis they run the full
//!   aggregation engine's slicers and ship per-slice partials; groups that
//!   only the root can terminate (count windows) ship raw event batches.
//!   Under Disco they ship per-window partials. Under a centralized system
//!   they ship raw batches only.
//! * **Intermediate** nodes merge partials from their children (slice- or
//!   window-grained) and forward the merged partials upward; raw events
//!   are relayed unchanged.
//! * The **root** merges, assembles windows, and emits final results.

use std::collections::BTreeMap;

use rustc_hash::{FxHashMap, FxHashSet};

use desis_baselines::Processor;
use desis_core::engine::{
    Assembler, GroupExecution, GroupId, GroupSlicer, ParallelConfig, QueryGroup, SealedSlice,
    ShardedSlicer,
};
use desis_core::event::{Event, EventBatch};
use desis_core::metrics::EngineMetrics;
use desis_core::obs::trace::TraceCollector;
use desis_core::query::{Query, QueryResult};
use desis_core::time::{DurationMs, Timestamp};

use crate::link::LinkSender;
use crate::merge::{
    AlignedSliceMerger, EventMerger, PartialAssembler, TimeAssembler, UnfixedRootMerger,
    WindowPartialMerger,
};
use crate::message::Message;
use crate::topology::NodeId;

/// Which distributed system the cluster runs (Section 6.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistributedSystem {
    /// Desis: slicing and operator sharing on every node, per-slice
    /// partials.
    Desis,
    /// Disco: Scotty-style slicing on local nodes only, per-window
    /// partials, string messaging.
    Disco,
    /// A centralized baseline: all events travel to the root, which runs
    /// the given single-node system.
    Centralized(desis_baselines::SystemKind),
}

impl DistributedSystem {
    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            DistributedSystem::Desis => "Desis",
            DistributedSystem::Disco => "Disco",
            DistributedSystem::Centralized(kind) => kind.label(),
        }
    }
}

/// Tracks per-child event-time progress: the effective watermark is the
/// minimum over live children, or the maximum final watermark once every
/// child has flushed.
#[derive(Debug)]
struct ChildClock {
    children: Vec<NodeId>,
    watermarks: FxHashMap<NodeId, Timestamp>,
    flushed: FxHashSet<NodeId>,
}

impl ChildClock {
    fn new(children: Vec<NodeId>) -> Self {
        Self {
            children,
            watermarks: FxHashMap::default(),
            flushed: FxHashSet::default(),
        }
    }

    fn on_watermark(&mut self, child: NodeId, ts: Timestamp) {
        let w = self.watermarks.entry(child).or_insert(0);
        *w = (*w).max(ts);
    }

    fn on_flush(&mut self, child: NodeId) {
        self.flushed.insert(child);
    }

    fn all_flushed(&self) -> bool {
        self.children.iter().all(|c| self.flushed.contains(c))
    }

    /// Event time every covered stream is guaranteed to have passed.
    fn effective(&self) -> Timestamp {
        let mut min_live = Timestamp::MAX;
        let mut max_final = 0;
        let mut all_flushed = true;
        for c in &self.children {
            let w = self.watermarks.get(c).copied().unwrap_or(0);
            max_final = max_final.max(w);
            if !self.flushed.contains(c) {
                all_flushed = false;
                min_live = min_live.min(w);
            }
        }
        if all_flushed {
            max_final
        } else {
            min_live
        }
    }
}

/// How a local node treats one query-group.
#[derive(Debug)]
enum LocalGroup {
    /// Slice locally, ship per-slice partials (Desis; Section 5.1). The
    /// flag says whether `ep` marks must travel with the slices: fixed
    /// time windows end at spec-derivable times, so only groups with
    /// data-driven (session/user-defined) windows ship their ends.
    Slice(GroupSlicer, bool),
    /// Slice locally, assemble per-window partials (Disco).
    WindowPartials(GroupSlicer, PartialAssembler),
    /// Only the root can process this group: ship raw events. The raw
    /// stream is shared by all such groups, so this carries no state.
    Raw,
}

/// A local (leaf) node.
#[derive(Debug)]
pub struct LocalWorker {
    id: NodeId,
    system: DistributedSystem,
    groups: Vec<LocalGroup>,
    /// Key-sharded slicers for fixed-time-window groups when the node
    /// runs with more than one shard (PR 5); `sharded_gids` maps the
    /// slicer's group indices back to wire group ids.
    sharded: Option<ShardedSlicer>,
    sharded_gids: Vec<GroupId>,
    sharded_queries: Vec<desis_core::query::QueryId>,
    merged: Vec<(usize, SealedSlice)>,
    /// Raw-event batch shared by all `Raw` groups (empty if none).
    batch: EventBatch,
    needs_raw: bool,
    batch_size: usize,
    watermark_every: DurationMs,
    next_watermark: Timestamp,
    last_ts: Timestamp,
    scratch: Vec<SealedSlice>,
    events: u64,
}

impl LocalWorker {
    /// Builds the local worker for `system` over the analyzed `groups`
    /// (single-sharded; see [`LocalWorker::with_shards`]).
    pub fn new(
        id: NodeId,
        system: DistributedSystem,
        groups: &[QueryGroup],
        batch_size: usize,
        watermark_every: DurationMs,
    ) -> Self {
        Self::with_shards(id, system, groups, batch_size, watermark_every, 1)
    }

    /// Builds the local worker with `shards` slicer threads for the
    /// node's sliced Desis groups — fixed-time-window groups merge by
    /// slice end, session/user-defined groups through the cross-shard
    /// unfixed merger (raw-shipping groups, other systems, and
    /// `shards <= 1` run sequentially on the node's event loop). The
    /// sharded slicers feed a per-group merger, so the uplink carries the
    /// same deterministic slice stream a sequential node would ship.
    pub fn with_shards(
        id: NodeId,
        system: DistributedSystem,
        groups: &[QueryGroup],
        batch_size: usize,
        watermark_every: DurationMs,
        shards: usize,
    ) -> Self {
        let want_sharding = shards > 1 && system == DistributedSystem::Desis;
        let mut shardable: Vec<QueryGroup> = Vec::new();
        let local_groups: Vec<LocalGroup> = match system {
            DistributedSystem::Centralized(_) => vec![LocalGroup::Raw],
            DistributedSystem::Desis => groups
                .iter()
                .filter_map(|g| match g.execution {
                    GroupExecution::RootRaw => Some(LocalGroup::Raw),
                    _ if want_sharding => {
                        shardable.push(g.clone());
                        None
                    }
                    _ => Some(LocalGroup::Slice(
                        GroupSlicer::new(g.clone()),
                        g.has_unfixed_windows(),
                    )),
                })
                .collect(),
            DistributedSystem::Disco => groups
                .iter()
                .map(|g| match g.execution {
                    GroupExecution::RootRaw | GroupExecution::RootSorted => LocalGroup::Raw,
                    GroupExecution::Decentralized => LocalGroup::WindowPartials(
                        GroupSlicer::new(g.clone()),
                        PartialAssembler::new(g),
                    ),
                })
                .collect(),
        };
        let mut groups = local_groups;
        let mut cfg = ParallelConfig::new(shards);
        cfg.batch_size = batch_size.max(1);
        let (sharded, sharded_gids, sharded_queries) = if shardable.is_empty() {
            (None, Vec::new(), Vec::new())
        } else {
            match ShardedSlicer::new(&shardable, &cfg) {
                Ok(s) => {
                    let gids = shardable.iter().map(|g| g.id).collect();
                    let qids = shardable
                        .iter()
                        .flat_map(|g| g.queries.iter().map(|cq| cq.query.id))
                        .collect();
                    (Some(s), gids, qids)
                }
                Err(_) => {
                    // Could not spawn worker threads: degrade to the
                    // sequential path rather than losing the groups.
                    groups.extend(shardable.into_iter().map(|g| {
                        let unfixed = g.has_unfixed_windows();
                        LocalGroup::Slice(GroupSlicer::new(g), unfixed)
                    }));
                    (None, Vec::new(), Vec::new())
                }
            }
        };
        let needs_raw = groups.iter().any(|g| matches!(g, LocalGroup::Raw));
        Self {
            id,
            system,
            groups,
            sharded,
            sharded_gids,
            sharded_queries,
            merged: Vec::new(),
            batch: EventBatch::with_capacity(batch_size),
            needs_raw,
            batch_size,
            watermark_every,
            next_watermark: watermark_every,
            last_ts: 0,
            scratch: Vec::new(),
            events: 0,
        }
    }

    /// Enables causal slice tracing: the slicers of per-slice groups get
    /// ring-buffer recorders minting/recording `SliceCreated`/`SliceSealed`
    /// spans. Disco's window partials and raw batches carry no trace ids,
    /// so those groups stay untraced.
    pub fn install_tracing(&mut self, collector: &TraceCollector) {
        for group in &mut self.groups {
            if let LocalGroup::Slice(slicer, _) = group {
                slicer.set_recorder(collector.recorder(self.id));
            }
        }
        if let Some(sharded) = &mut self.sharded {
            sharded.install_tracing(collector, self.id);
        }
    }

    /// Installs a new query-group at runtime (Section 3.2); the same group
    /// (same id) must be registered at the root.
    pub fn add_group(&mut self, group: &QueryGroup) {
        let local = match (self.system, group.execution) {
            (DistributedSystem::Centralized(_), _) | (_, GroupExecution::RootRaw) => {
                LocalGroup::Raw
            }
            (DistributedSystem::Disco, GroupExecution::RootSorted) => LocalGroup::Raw,
            (DistributedSystem::Disco, GroupExecution::Decentralized) => {
                LocalGroup::WindowPartials(
                    GroupSlicer::new(group.clone()),
                    PartialAssembler::new(group),
                )
            }
            (DistributedSystem::Desis, _) => {
                LocalGroup::Slice(GroupSlicer::new(group.clone()), group.has_unfixed_windows())
            }
        };
        self.needs_raw |= matches!(local, LocalGroup::Raw);
        self.groups.push(local);
    }

    /// Removes a query at runtime (Section 3.2): with `immediate`, its
    /// in-flight windows are dropped; otherwise they drain.
    pub fn remove_query(&mut self, id: desis_core::query::QueryId, immediate: bool) -> bool {
        let mut removed = false;
        for group in &mut self.groups {
            match group {
                LocalGroup::Slice(slicer, _) | LocalGroup::WindowPartials(slicer, _) => {
                    removed |= slicer.remove_query(id, immediate);
                }
                LocalGroup::Raw => {}
            }
        }
        if self.sharded_queries.contains(&id) {
            if let Some(sharded) = &mut self.sharded {
                sharded.remove_query(id, immediate);
                removed = true;
            }
        }
        removed
    }

    /// Ingests one event, sending any produced partials upstream.
    /// Returns `false` if the uplink is closed.
    pub fn on_event(&mut self, ev: &Event, uplink: &mut LinkSender) -> bool {
        self.events += 1;
        self.last_ts = ev.ts;
        for group in &mut self.groups {
            match group {
                LocalGroup::Slice(slicer, ship_ends) => {
                    slicer.on_event(ev, &mut self.scratch);
                    let gid = slicer.group().id;
                    if !flush_slices(gid, self.id, *ship_ends, &mut self.scratch, uplink) {
                        return false;
                    }
                }
                LocalGroup::WindowPartials(slicer, assembler) => {
                    slicer.on_event(ev, &mut self.scratch);
                    for slice in self.scratch.drain(..) {
                        let partials = assembler.on_slice(&slice);
                        if !partials.is_empty()
                            && !uplink.send(&Message::WindowPartials {
                                origin: self.id,
                                coverage: 1,
                                partials,
                            })
                        {
                            return false;
                        }
                    }
                }
                LocalGroup::Raw => {}
            }
        }
        let sharded_flushed = match &mut self.sharded {
            Some(sharded) => sharded.on_event(ev),
            None => false,
        };
        if sharded_flushed && !self.ship_sharded(uplink) {
            return false;
        }
        if self.needs_raw {
            self.batch.push(*ev);
            if self.batch.len() >= self.batch_size && !uplink.send_batch(&mut self.batch) {
                return false;
            }
        }
        if ev.ts >= self.next_watermark {
            self.next_watermark = (ev.ts / self.watermark_every + 1) * self.watermark_every;
            if !self.send_watermark(ev.ts, uplink) {
                return false;
            }
        }
        true
    }

    /// Ships merged slices of the sharded groups upstream, exactly as
    /// the sequential path ships its per-group slices (coverage 1).
    /// Fixed-window merges carry no ends (the root re-derives their
    /// `ep`s from the specs); unfixed merges are self-contained
    /// per-window slices whose ends and session gaps ship as-is, byte-
    /// compatible with a sequential child's unfixed slice stream.
    fn ship_sharded(&mut self, uplink: &mut LinkSender) -> bool {
        let Some(sharded) = &mut self.sharded else {
            return true;
        };
        sharded.drain_merged(&mut self.merged);
        for (group, partial) in self.merged.drain(..) {
            let Some(&gid) = self.sharded_gids.get(group) else {
                continue;
            };
            if !uplink.send(&Message::Slice {
                group: gid,
                origin: self.id,
                coverage: 1,
                partial,
            }) {
                return false;
            }
        }
        true
    }

    fn send_watermark(&mut self, ts: Timestamp, uplink: &mut LinkSender) -> bool {
        // A watermark also drives local slicers so idle streams still
        // deliver (possibly empty) slices for completed windows.
        for group in &mut self.groups {
            match group {
                LocalGroup::Slice(slicer, ship_ends) => {
                    slicer.on_watermark(ts, &mut self.scratch);
                    let gid = slicer.group().id;
                    if !flush_slices(gid, self.id, *ship_ends, &mut self.scratch, uplink) {
                        return false;
                    }
                }
                LocalGroup::WindowPartials(slicer, assembler) => {
                    slicer.on_watermark(ts, &mut self.scratch);
                    for slice in self.scratch.drain(..) {
                        let partials = assembler.on_slice(&slice);
                        if !partials.is_empty()
                            && !uplink.send(&Message::WindowPartials {
                                origin: self.id,
                                coverage: 1,
                                partials,
                            })
                        {
                            return false;
                        }
                    }
                }
                LocalGroup::Raw => {}
            }
        }
        if let Some(sharded) = &mut self.sharded {
            // Barrier: every shard acknowledges `ts` before the watermark
            // goes upstream, so the shipped slice stream is deterministic.
            sharded.on_watermark(ts);
        }
        if self.sharded.is_some() && !self.ship_sharded(uplink) {
            return false;
        }
        if self.needs_raw && !self.batch.is_empty() && !uplink.send_batch(&mut self.batch) {
            return false;
        }
        uplink.send(&Message::Watermark(ts))
    }

    /// Ends the stream: advances time by `horizon` to fire pending
    /// windows, flushes batches, and sends `Flush`.
    pub fn finish(&mut self, horizon: DurationMs, uplink: &mut LinkSender) -> bool {
        let final_ts = self.last_ts + horizon;
        if !self.send_watermark(final_ts, uplink) {
            return false;
        }
        if let Some(sharded) = &mut self.sharded {
            sharded.finish();
        }
        if self.sharded.is_some() && !self.ship_sharded(uplink) {
            return false;
        }
        uplink.send(&Message::Flush)
    }

    /// Slicer metrics summed over groups (including sharded workers,
    /// complete once [`LocalWorker::finish`] joined them).
    pub fn metrics(&self) -> EngineMetrics {
        let mut m = EngineMetrics::default();
        for group in &self.groups {
            match group {
                LocalGroup::Slice(s, _) | LocalGroup::WindowPartials(s, _) => {
                    m.absorb(s.metrics());
                }
                LocalGroup::Raw => {}
            }
        }
        if let Some(sharded) = &self.sharded {
            m.absorb(&sharded.metrics());
        }
        m.events = self.events;
        m
    }

    /// Shard count of the node's parallel slicers (1 when sequential).
    pub fn shards(&self) -> usize {
        self.sharded.as_ref().map_or(1, ShardedSlicer::shards)
    }
}

fn flush_slices(
    group: GroupId,
    origin: NodeId,
    ship_ends: bool,
    scratch: &mut Vec<SealedSlice>,
    uplink: &mut LinkSender,
) -> bool {
    for mut partial in scratch.drain(..) {
        if !ship_ends {
            // Fixed-window `ep`s are re-derived from the specs at the
            // root; do not spend wire bytes on them.
            partial.ends.clear();
        }
        if !uplink.send(&Message::Slice {
            group,
            origin,
            coverage: 1,
            partial,
        }) {
            return false;
        }
    }
    true
}

/// How an intermediate node treats one query-group's slices.
#[derive(Debug)]
enum IntermediateGroup {
    /// Fixed-window slices merge by time range before forwarding.
    Merge(AlignedSliceMerger),
    /// Unfixed groups pass through; the root merges per child.
    PassThrough,
}

/// An intermediate node: merges child partials, relays raw events.
#[derive(Debug)]
pub struct IntermediateWorker {
    id: NodeId,
    /// Covered local streams below this node.
    coverage: u32,
    slice_groups: BTreeMap<GroupId, IntermediateGroup>,
    window_merger: Option<WindowPartialMerger>,
    /// Reorders raw event streams of the children so the uplink carries
    /// one timestamp-ordered stream.
    event_merger: EventMerger,
    clock: ChildClock,
    forwarded_watermark: Timestamp,
    flush_forwarded: bool,
    scratch: Vec<SealedSlice>,
    event_scratch: Vec<Event>,
}

impl IntermediateWorker {
    /// Builds the intermediate worker.
    pub fn new(
        id: NodeId,
        system: DistributedSystem,
        groups: &[QueryGroup],
        coverage: u32,
        children: Vec<NodeId>,
    ) -> Self {
        let mut slice_groups = BTreeMap::new();
        let mut window_merger = None;
        match system {
            DistributedSystem::Desis => {
                for g in groups {
                    if g.execution != GroupExecution::RootRaw {
                        let mode = if g.has_unfixed_windows() {
                            IntermediateGroup::PassThrough
                        } else {
                            IntermediateGroup::Merge(AlignedSliceMerger::new(coverage))
                        };
                        slice_groups.insert(g.id, mode);
                    }
                }
            }
            DistributedSystem::Disco => {
                // Disco merges per-window partials of all groups with one
                // merger (windows are identified by query + range).
                window_merger = Some(WindowPartialMerger::new(&merge_groups(groups), coverage));
            }
            DistributedSystem::Centralized(_) => {}
        }
        Self {
            id,
            coverage,
            slice_groups,
            window_merger,
            event_merger: EventMerger::new(children.len()),
            clock: ChildClock::new(children),
            forwarded_watermark: 0,
            flush_forwarded: false,
            scratch: Vec::new(),
            event_scratch: Vec::new(),
        }
    }

    /// Enables causal slice tracing on the slice mergers: merged slices
    /// record `MergeStart`/`MergeDone` spans under the representative
    /// trace id of the first contributing child slice.
    pub fn install_tracing(&mut self, collector: &TraceCollector) {
        for group in self.slice_groups.values_mut() {
            if let IntermediateGroup::Merge(merger) = group {
                merger.set_recorder(collector.recorder(self.id));
            }
        }
    }

    /// Forwards any raw events that became releasable.
    fn forward_ready_events(&mut self, uplink: &mut LinkSender) -> bool {
        self.event_merger.drain_ready(&mut self.event_scratch);
        if self.event_scratch.is_empty() {
            return true;
        }
        uplink.send(&Message::Events(std::mem::take(&mut self.event_scratch)))
    }

    /// Handles one message from child `child`; forwards upward as needed.
    /// Returns `false` if the uplink closed.
    pub fn on_message(&mut self, child: NodeId, msg: Message, uplink: &mut LinkSender) -> bool {
        match msg {
            Message::Events(events) => {
                self.event_merger.on_events(child, events);
                self.forward_ready_events(uplink)
            }
            Message::Slice {
                group,
                origin,
                coverage,
                partial,
            } => match self.slice_groups.get_mut(&group) {
                Some(IntermediateGroup::Merge(merger)) => {
                    merger.on_slice(partial, coverage);
                    merger.drain_ready(&mut self.scratch);
                    let my_coverage = self.coverage;
                    let my_id = self.id;
                    for merged in self.scratch.drain(..) {
                        if !uplink.send(&Message::Slice {
                            group,
                            origin: my_id,
                            coverage: my_coverage,
                            partial: merged,
                        }) {
                            return false;
                        }
                    }
                    true
                }
                Some(IntermediateGroup::PassThrough) | None => uplink.send(&Message::Slice {
                    group,
                    origin,
                    coverage,
                    partial,
                }),
            },
            Message::WindowPartials {
                partials, coverage, ..
            } => {
                // Window partials are a Disco-only message; a child
                // speaking the wrong protocol must not bring the node
                // down, so the message is dropped.
                let Some(merger) = self.window_merger.as_mut() else {
                    return true;
                };
                let mut merged = Vec::new();
                for p in partials {
                    if let Some(done) = merger.on_partial(p, coverage) {
                        merged.push(done);
                    }
                }
                if merged.is_empty() {
                    return true;
                }
                uplink.send(&Message::WindowPartials {
                    origin: self.id,
                    coverage: self.coverage,
                    partials: merged,
                })
            }
            Message::Watermark(ts) => {
                self.clock.on_watermark(child, ts);
                self.event_merger.on_watermark(child, ts);
                if !self.forward_ready_events(uplink) {
                    return false;
                }
                self.advance(uplink)
            }
            Message::Flush => {
                self.clock.on_flush(child);
                self.event_merger.on_flush(child);
                if !self.forward_ready_events(uplink) {
                    return false;
                }
                if !self.advance(uplink) {
                    return false;
                }
                if self.clock.all_flushed() && !self.flush_forwarded {
                    self.flush_forwarded = true;
                    return uplink.send(&Message::Flush);
                }
                true
            }
        }
    }

    /// Applies the effective child watermark: force-completes merges over
    /// idle streams and forwards the watermark.
    fn advance(&mut self, uplink: &mut LinkSender) -> bool {
        let effective = self.clock.effective();
        if effective <= self.forwarded_watermark {
            return true;
        }
        self.forwarded_watermark = effective;
        let my_id = self.id;
        let my_coverage = self.coverage;
        for (gid, group) in self.slice_groups.iter_mut() {
            if let IntermediateGroup::Merge(merger) = group {
                merger.advance_watermark(effective);
                merger.drain_ready(&mut self.scratch);
                for merged in self.scratch.drain(..) {
                    if !uplink.send(&Message::Slice {
                        group: *gid,
                        origin: my_id,
                        coverage: my_coverage,
                        partial: merged,
                    }) {
                        return false;
                    }
                }
            }
        }
        uplink.send(&Message::Watermark(effective))
    }

    /// Whether every child has flushed.
    pub fn finished(&self) -> bool {
        self.clock.all_flushed()
    }

    /// Partials currently held back waiting for sibling streams (the
    /// merge-stall depth reported to the metrics registry).
    pub fn pending_merges(&self) -> usize {
        let slices: usize = self
            .slice_groups
            .values()
            .map(|g| match g {
                IntermediateGroup::Merge(m) => m.pending_len(),
                IntermediateGroup::PassThrough => 0,
            })
            .sum();
        slices + self.window_merger.as_ref().map_or(0, |m| m.pending_len())
    }
}

/// Merges multiple groups into one pseudo-group for per-query lookups
/// across group boundaries (Disco's window merger).
fn merge_groups(groups: &[QueryGroup]) -> QueryGroup {
    let mut queries: Vec<Query> = Vec::new();
    for g in groups {
        for cq in &g.queries {
            queries.push(cq.query.clone());
        }
    }
    let members = queries.into_iter().map(|q| (q, 0)).collect();
    QueryGroup::build(0, members, vec![desis_core::predicate::Predicate::True])
}

/// How the root treats one query-group.
enum RootGroup {
    /// Merge aligned slices, assemble windows by time range.
    Aligned(AlignedSliceMerger, TimeAssembler),
    /// Per-child merging for groups with session/user-defined windows.
    Unfixed(UnfixedRootMerger),
    /// Raw events re-sliced and assembled at the root (boxed: the raw
    /// pipeline is much larger than the merge-only variants).
    Raw(Box<GroupSlicer>, Box<Assembler>),
}

impl std::fmt::Debug for RootGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let label = match self {
            RootGroup::Aligned(..) => "Aligned",
            RootGroup::Unfixed(..) => "Unfixed",
            RootGroup::Raw(..) => "Raw",
        };
        f.write_str(label)
    }
}

/// The root node: merges partials, terminates windows, emits results.
pub struct RootWorker {
    slice_groups: BTreeMap<GroupId, RootGroup>,
    window_merger: Option<WindowPartialMerger>,
    /// Raw events merged across children and fed to `Raw` groups or the
    /// centralized processor.
    event_merger: Option<EventMerger>,
    centralized: Option<Box<dyn Processor>>,
    results: Vec<QueryResult>,
    clock: ChildClock,
    applied_watermark: Timestamp,
    flush_done: bool,
    raw_scratch: Vec<Event>,
    slice_scratch: Vec<SealedSlice>,
    merged_scratch: Vec<SealedSlice>,
    processed_raw_events: u64,
}

impl std::fmt::Debug for RootWorker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RootWorker")
            .field("groups", &self.slice_groups)
            .finish_non_exhaustive()
    }
}

impl RootWorker {
    /// Builds the root worker. `n_leaves` is the number of local streams
    /// in the whole topology; `children` the root's direct children.
    pub fn new(
        system: DistributedSystem,
        groups: &[QueryGroup],
        all_queries: &[Query],
        n_leaves: usize,
        children: Vec<NodeId>,
    ) -> Result<Self, desis_core::DesisError> {
        let mut slice_groups = BTreeMap::new();
        let mut window_merger = None;
        let mut event_merger = None;
        let mut centralized = None;
        match system {
            DistributedSystem::Desis | DistributedSystem::Disco => {
                let mut any_raw = false;
                for g in groups {
                    any_raw |= Self::register_group(&mut slice_groups, system, g, n_leaves);
                }
                if system == DistributedSystem::Disco
                    && groups
                        .iter()
                        .any(|g| g.execution == GroupExecution::Decentralized)
                {
                    window_merger = Some(WindowPartialMerger::new(
                        &merge_groups(groups),
                        n_leaves as u32,
                    ));
                }
                if any_raw {
                    // Each direct child delivers one ordered raw stream
                    // (intermediates reorder their subtree).
                    event_merger = Some(EventMerger::new(children.len()));
                }
            }
            DistributedSystem::Centralized(kind) => {
                event_merger = Some(EventMerger::new(children.len()));
                centralized = Some(kind.build(all_queries.to_vec())?);
            }
        }
        Ok(Self {
            slice_groups,
            window_merger,
            event_merger,
            centralized,
            results: Vec::new(),
            clock: ChildClock::new(children),
            applied_watermark: 0,
            flush_done: false,
            raw_scratch: Vec::new(),
            slice_scratch: Vec::new(),
            merged_scratch: Vec::new(),
            processed_raw_events: 0,
        })
    }

    /// Enables causal slice tracing at the root under node id `node` (the
    /// root worker itself is topology-agnostic): mergers record
    /// `MergeStart`/`MergeDone` and assemblers `WindowAssembled`/
    /// `ResultEmitted` spans. Window-partial and centralized paths carry
    /// no trace ids and stay untraced.
    pub fn install_tracing(&mut self, collector: &TraceCollector, node: NodeId) {
        for group in self.slice_groups.values_mut() {
            match group {
                RootGroup::Aligned(merger, assembler) => {
                    merger.set_recorder(collector.recorder(node));
                    assembler.set_recorder(collector.recorder(node));
                }
                RootGroup::Unfixed(merger) => merger.set_recorder(collector.recorder(node)),
                RootGroup::Raw(slicer, assembler) => {
                    slicer.set_recorder(collector.recorder(node));
                    assembler.set_recorder(collector.recorder(node));
                }
            }
        }
    }

    /// Registers one group's root-side machinery; returns whether the
    /// group needs the raw event stream.
    fn register_group(
        slice_groups: &mut BTreeMap<GroupId, RootGroup>,
        system: DistributedSystem,
        g: &QueryGroup,
        n_leaves: usize,
    ) -> bool {
        match (system, g.execution) {
            (_, GroupExecution::RootRaw)
            | (DistributedSystem::Disco, GroupExecution::RootSorted) => {
                slice_groups.insert(
                    g.id,
                    RootGroup::Raw(
                        Box::new(GroupSlicer::new(g.clone())),
                        Box::new(Assembler::new(g)),
                    ),
                );
                true
            }
            (DistributedSystem::Disco, GroupExecution::Decentralized) => {
                // Handled by the shared window-partial merger.
                false
            }
            (DistributedSystem::Desis, _) => {
                let mode = if g.has_unfixed_windows() {
                    RootGroup::Unfixed(UnfixedRootMerger::new(g, n_leaves))
                } else {
                    RootGroup::Aligned(
                        AlignedSliceMerger::new(n_leaves as u32),
                        TimeAssembler::new(g),
                    )
                };
                slice_groups.insert(g.id, mode);
                false
            }
            (DistributedSystem::Centralized(_), _) => {
                // Centralized roots run the engine directly and have no
                // per-group machinery; registering is a no-op.
                false
            }
        }
    }

    /// Installs a new query-group at runtime (Section 3.2). The group must
    /// carry the same id the local nodes use.
    pub fn add_group(&mut self, system: DistributedSystem, group: &QueryGroup, n_leaves: usize) {
        let needs_raw = Self::register_group(&mut self.slice_groups, system, group, n_leaves);
        if needs_raw && self.event_merger.is_none() {
            self.event_merger = Some(EventMerger::new(self.clock.children.len()));
        }
    }

    /// Stops producing results for `query` (runtime removal, Section 3.2).
    pub fn remove_query(&mut self, query: desis_core::query::QueryId) {
        for group in self.slice_groups.values_mut() {
            match group {
                RootGroup::Aligned(_, assembler) => {
                    assembler.remove_query(query);
                }
                RootGroup::Unfixed(merger) => {
                    merger.remove_query(query);
                }
                RootGroup::Raw(slicer, assembler) => {
                    slicer.remove_query(query, true);
                    assembler.remove_query(query);
                }
            }
        }
    }

    /// Handles one message from a direct child.
    pub fn on_message(&mut self, child: NodeId, msg: Message) {
        match msg {
            Message::Events(events) => {
                if let Some(merger) = &mut self.event_merger {
                    merger.on_events(child, events);
                    self.pump_raw();
                }
            }
            Message::Slice {
                group,
                origin,
                coverage,
                partial,
            } => match self.slice_groups.get_mut(&group) {
                Some(RootGroup::Aligned(merger, assembler)) => {
                    merger.on_slice(partial, coverage);
                    merger.drain_ready(&mut self.merged_scratch);
                    for merged in self.merged_scratch.drain(..) {
                        assembler.on_slice(merged, &mut self.results);
                    }
                }
                Some(RootGroup::Unfixed(merger)) => {
                    merger.on_slice(origin, partial, &mut self.results);
                }
                Some(RootGroup::Raw(..)) | None => {
                    debug_assert!(false, "slice for raw/unknown group {group}");
                }
            },
            Message::WindowPartials {
                partials, coverage, ..
            } => {
                if let Some(merger) = &mut self.window_merger {
                    for p in partials {
                        if let Some(done) = merger.on_partial(p, coverage) {
                            merger.finalize(&done, &mut self.results);
                        }
                    }
                }
            }
            Message::Watermark(ts) => {
                self.clock.on_watermark(child, ts);
                if let Some(merger) = &mut self.event_merger {
                    merger.on_watermark(child, ts);
                    self.pump_raw();
                }
                self.advance();
            }
            Message::Flush => {
                self.clock.on_flush(child);
                if let Some(merger) = &mut self.event_merger {
                    merger.on_flush(child);
                    self.pump_raw();
                }
                self.advance();
            }
        }
    }

    /// Applies the effective watermark to mergers and raw pipelines.
    fn advance(&mut self) {
        let effective = self.clock.effective();
        let all_flushed = self.clock.all_flushed();
        let flushing = all_flushed && !self.flush_done;
        if effective <= self.applied_watermark && !flushing {
            return;
        }
        self.applied_watermark = self.applied_watermark.max(effective);
        if flushing {
            self.flush_done = true;
        }
        let all_flushed = flushing;
        for group in self.slice_groups.values_mut() {
            match group {
                RootGroup::Aligned(merger, assembler) => {
                    merger.advance_watermark(effective);
                    merger.drain_ready(&mut self.merged_scratch);
                    for merged in self.merged_scratch.drain(..) {
                        assembler.on_slice(merged, &mut self.results);
                    }
                }
                RootGroup::Raw(slicer, assembler) => {
                    slicer.on_watermark(effective, &mut self.slice_scratch);
                    for slice in self.slice_scratch.drain(..) {
                        assembler.on_slice(slice, &mut self.results);
                    }
                }
                RootGroup::Unfixed(merger) => {
                    merger.on_watermark(effective, &mut self.results);
                    if all_flushed {
                        merger.flush(&mut self.results);
                    }
                }
            }
        }
        if let Some(p) = &mut self.centralized {
            p.on_watermark(effective);
            self.results.extend(p.drain_results());
        }
    }

    /// Releases reordered raw events into the raw pipelines.
    fn pump_raw(&mut self) {
        let Some(merger) = &mut self.event_merger else {
            return;
        };
        merger.drain_ready(&mut self.raw_scratch);
        if self.raw_scratch.is_empty() {
            return;
        }
        self.processed_raw_events += self.raw_scratch.len() as u64;
        for ev in self.raw_scratch.drain(..) {
            for group in self.slice_groups.values_mut() {
                if let RootGroup::Raw(slicer, assembler) = group {
                    slicer.on_event(&ev, &mut self.slice_scratch);
                    for slice in self.slice_scratch.drain(..) {
                        assembler.on_slice(slice, &mut self.results);
                    }
                }
            }
            if let Some(p) = &mut self.centralized {
                p.on_event(&ev);
            }
        }
        if let Some(p) = &mut self.centralized {
            self.results.extend(p.drain_results());
        }
    }

    /// Whether every child flushed.
    pub fn finished(&self) -> bool {
        self.clock.all_flushed()
    }

    /// The event-time watermark the root has applied so far.
    pub fn watermark(&self) -> Timestamp {
        self.applied_watermark
    }

    /// Takes the results produced since the last drain.
    pub fn drain_results(&mut self) -> Vec<QueryResult> {
        std::mem::take(&mut self.results)
    }

    /// Events the root itself had to process raw (Figure 7d: the root is
    /// the bottleneck for non-decomposable functions).
    pub fn raw_events_processed(&self) -> u64 {
        self.processed_raw_events
    }

    /// Partials currently held back waiting for sibling streams (the
    /// merge-stall depth reported to the metrics registry).
    pub fn pending_merges(&self) -> usize {
        let slices: usize = self
            .slice_groups
            .values()
            .map(|g| match g {
                RootGroup::Aligned(m, _) => m.pending_len(),
                RootGroup::Unfixed(m) => m.pending_len(),
                RootGroup::Raw(..) => 0,
            })
            .sum();
        slices + self.window_merger.as_ref().map_or(0, |m| m.pending_len())
    }
}

/// Analyzes queries the way each distributed system groups them: Desis
/// with full sharing, Disco with per-function sharing, both with the
/// decentralized deployment split (Section 5.2).
pub fn analyze_for(
    system: DistributedSystem,
    queries: Vec<Query>,
) -> Result<Vec<QueryGroup>, desis_core::DesisError> {
    use desis_core::engine::{Deployment, QueryAnalyzer, SharingPolicy};
    let analyzer = match system {
        DistributedSystem::Desis => {
            QueryAnalyzer::new(SharingPolicy::Full, Deployment::Decentralized)
        }
        DistributedSystem::Disco => {
            QueryAnalyzer::new(SharingPolicy::PerFunction, Deployment::Decentralized)
        }
        // Centralized systems do their own analysis at the root.
        DistributedSystem::Centralized(_) => {
            QueryAnalyzer::new(SharingPolicy::Full, Deployment::Centralized)
        }
    };
    analyzer.analyze(queries)
}

#[cfg(test)]
mod tests;
