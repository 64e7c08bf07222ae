//! Node runtimes: local, intermediate and root workers (paper Sections
//! 2.4 and 5) — one component with different wiring.
//!
//! Workers are plain structs driven by messages/events, so they are unit
//! testable without threads; `cluster` wires them onto links and threads.
//!
//! * `deployment` is the one table saying how a system runs a
//!   query-group on each role: what a local does with it (slice and ship,
//!   assemble Disco's window partials, or ship raw events) and how the
//!   root terminates it.
//! * `Children` is the child-facing half of every non-leaf node: the
//!   per-child clock, the aligned-slice mergers, Disco's window-partial
//!   merger and the raw-event reorder, behind the only state machine over
//!   the five [`Message`] kinds. What it produces goes to its `Upstream`.
//! * `Forward` is the upstream that writes to an uplink, and the only
//!   code that builds a [`Message`]: an **intermediate** node is
//!   `Children` + `Forward` with its subtree's coverage, and a **local**
//!   node ships what its own slicers seal through the same `Forward` with
//!   coverage 1.
//! * `Terminal` is the upstream that ends the tree: the **root** is
//!   `Children` + `Terminal`, which ends every group in the core
//!   [`GroupTerminal`] of its plan — the type the sequential engine and
//!   the sharded collector end theirs in — and emits the results.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use desis_baselines::Processor;
use desis_core::engine::merge::UnfixedMerger;
use desis_core::engine::{
    GroupExecution, GroupId, GroupPlan, GroupSlicer, GroupTerminal, ParallelConfig, QueryGroup,
    SealedSlice, ShardedSlicer,
};
use desis_core::event::{Event, EventBatch};
use desis_core::metrics::EngineMetrics;
use desis_core::obs::trace::TraceCollector;
use desis_core::obs::MetricsRegistry;
use desis_core::query::{Query, QueryId, QueryResult};
use desis_core::time::{next_multiple_after, DurationMs, Timestamp};

use crate::link::LinkSender;
use crate::merge::{AlignedSliceMerger, EventMerger, PartialAssembler, WindowPartialMerger};
use crate::message::{Message, WindowPartial};
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
    /// `(child, its highest watermark, whether it flushed)`.
    children: Vec<(NodeId, Timestamp, bool)>,
}

impl ChildClock {
    fn new(children: Vec<NodeId>) -> Self {
        let children = children.into_iter().map(|c| (c, 0, false)).collect();
        Self { children }
    }

    fn child(&mut self, id: NodeId) -> Option<&mut (NodeId, Timestamp, bool)> {
        self.children.iter_mut().find(|c| c.0 == id)
    }

    fn on_watermark(&mut self, child: NodeId, ts: Timestamp) {
        if let Some(c) = self.child(child) {
            c.1 = c.1.max(ts);
        }
    }

    fn on_flush(&mut self, child: NodeId) {
        if let Some(c) = self.child(child) {
            c.2 = true;
        }
    }

    fn all_flushed(&self) -> bool {
        self.children.iter().all(|c| c.2)
    }

    /// Event time every covered stream is guaranteed to have passed.
    fn effective(&self) -> Timestamp {
        let live = self.children.iter().filter(|c| !c.2).map(|c| c.1).min();
        live.unwrap_or_else(|| self.children.iter().map(|c| c.1).max().unwrap_or(0))
    }
}

/// One row of the deployment table: how a system runs one query-group on
/// every node role (Sections 5.1, 5.2 and 6.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodePlan {
    /// The group runs by a core [`GroupPlan`] and the root ends it in that
    /// plan's [`GroupTerminal`]:
    /// * `Aligned` — locals slice and ship per-slice partials without
    ///   their `ep` marks (fixed time windows end at spec-derivable
    ///   times); every non-leaf node merges the slices by slice end.
    /// * `Unfixed` — locals slice and ship per-slice partials with their
    ///   data-driven (session/user-defined) ends; intermediates pass the
    ///   slices through untouched; the root merges per window and
    ///   originating local.
    /// * `Raw` — only the root can process the group: locals ship raw
    ///   events, inner nodes reorder them, the root re-slices.
    Core(GroupPlan),
    /// Disco: locals slice and ship per-*window* partials, which every
    /// non-leaf node merges by window; the root finalizes them.
    Partials,
    /// Raw events travel like `Raw`'s; the centralized baseline at the
    /// root processes them itself, with no per-group machinery.
    Centralized,
}

/// The deployment table: the system's overrides over the group's own plan.
fn deployment(system: DistributedSystem, group: &QueryGroup) -> NodePlan {
    match (system, group.execution) {
        (DistributedSystem::Centralized(_), _) => NodePlan::Centralized,
        (DistributedSystem::Disco, GroupExecution::Decentralized) => NodePlan::Partials,
        // What Disco cannot decompose it ships raw.
        (DistributedSystem::Disco, GroupExecution::RootSorted | GroupExecution::RootRaw) => {
            NodePlan::Core(GroupPlan::Raw)
        }
        (DistributedSystem::Desis, _) => NodePlan::Core(GroupPlan::of(group)),
    }
}

/// Where a node's products go: up the uplink ([`Forward`]) or into window
/// assembly ([`Terminal`]). Every method returns `false` once the
/// receiver is gone.
trait Upstream {
    /// Raw events released in timestamp order (drained from `events`).
    fn events(&mut self, events: &mut Vec<Event>) -> bool;
    /// A slice of `group` this node's aligned merger completed (for a
    /// local node: one its own slicer sealed).
    fn merged_slice(&mut self, group: GroupId, slice: SealedSlice) -> bool;
    /// A child's slice of a group this node does not align-merge.
    fn child_slice(
        &mut self,
        group: GroupId,
        origin: NodeId,
        coverage: u32,
        partial: SealedSlice,
    ) -> bool;
    /// Window partials that reached this node's coverage in `merger`.
    fn merged_partials(
        &mut self,
        partials: Vec<WindowPartial>,
        merger: &WindowPartialMerger,
    ) -> bool;
    /// The effective child watermark advanced to `ts`.
    fn watermark(&mut self, ts: Timestamp) -> bool;
    /// Every child flushed.
    fn end(&mut self) -> bool;
}

/// The uplink writer of node `id`, whose products cover `coverage` local
/// streams. The only code that constructs a [`Message`].
struct Forward<'a> {
    id: NodeId,
    coverage: u32,
    uplink: &'a mut LinkSender,
}

impl Forward<'_> {
    fn window_partials(&mut self, partials: Vec<WindowPartial>) -> bool {
        self.uplink.send(&Message::WindowPartials {
            origin: self.id,
            coverage: self.coverage,
            partials,
        })
    }

    /// Ships a local node's raw batch, if it holds any events.
    fn raw_batch(&mut self, batch: &mut EventBatch) -> bool {
        self.uplink.send_batch(batch)
    }
}

impl Upstream for Forward<'_> {
    fn events(&mut self, events: &mut Vec<Event>) -> bool {
        self.uplink.send(&Message::Events(std::mem::take(events)))
    }

    fn merged_slice(&mut self, group: GroupId, partial: SealedSlice) -> bool {
        self.uplink.send(&Message::Slice {
            group,
            origin: self.id,
            coverage: self.coverage,
            partial,
        })
    }

    /// Forwarded untouched, origin and coverage included: the root merges
    /// unfixed groups per originating local. A group this node never
    /// heard of takes the same path — runtime-added groups
    /// (`ClusterCommand::AddQuery`) are installed at locals and the root
    /// only, so their slices cross intermediates this way.
    fn child_slice(
        &mut self,
        group: GroupId,
        origin: NodeId,
        coverage: u32,
        partial: SealedSlice,
    ) -> bool {
        self.uplink.send(&Message::Slice {
            group,
            origin,
            coverage,
            partial,
        })
    }

    fn merged_partials(&mut self, partials: Vec<WindowPartial>, _: &WindowPartialMerger) -> bool {
        self.window_partials(partials)
    }

    fn watermark(&mut self, ts: Timestamp) -> bool {
        self.uplink.send(&Message::Watermark(ts))
    }

    fn end(&mut self) -> bool {
        self.uplink.send(&Message::Flush)
    }
}

/// A local node's slicer for one query-group and what its sealed slices
/// become on the wire (raw-shipped groups share the node's event batch
/// and keep no state).
#[derive(Debug)]
struct LocalGroup {
    slicer: GroupSlicer,
    ship: Ship,
}

#[derive(Debug)]
enum Ship {
    /// Per-slice partials, with or without their `ep` marks.
    Slices { ends: bool },
    /// Per-window partials (Disco).
    WindowPartials(PartialAssembler),
}

impl LocalGroup {
    /// Ships what the slicer sealed into `sealed`.
    fn ship(&mut self, sealed: &mut Vec<SealedSlice>, up: &mut Forward<'_>) -> bool {
        let gid = self.slicer.group().id;
        match &mut self.ship {
            Ship::Slices { ends } => sealed.drain(..).all(|mut partial| {
                if !*ends {
                    // Fixed-window `ep`s are re-derived from the specs at
                    // the root; do not spend wire bytes on them.
                    partial.ends.clear();
                }
                up.merged_slice(gid, partial)
            }),
            Ship::WindowPartials(assembler) => sealed.drain(..).all(|slice| {
                let partials = assembler.on_slice(&slice);
                partials.is_empty() || up.window_partials(partials)
            }),
        }
    }
}

/// A local (leaf) node.
#[derive(Debug)]
pub struct LocalWorker {
    id: NodeId,
    system: DistributedSystem,
    groups: Vec<LocalGroup>,
    /// Key-sharded slicers for the sliced groups when the node runs with
    /// more than one shard (PR 5); `sharded_gids` maps the slicer's group
    /// indices back to wire group ids.
    sharded: Option<ShardedSlicer>,
    sharded_gids: Vec<GroupId>,
    sharded_queries: Vec<QueryId>,
    merged: Vec<(usize, SealedSlice)>,
    /// Raw-event batch shared by all raw-shipped groups.
    batch: EventBatch,
    needs_raw: bool,
    batch_size: usize,
    watermark_every: DurationMs,
    /// The next point of the `watermark_every` grid, strictly after
    /// `vouched` once the stream began.
    next_watermark: Timestamp,
    /// The latest instant the node vouched for: its newest event or the
    /// watermark it sent last, whichever is later.
    vouched: Timestamp,
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
        let registry = Arc::default();
        Self::with_shards(
            id,
            system,
            groups,
            batch_size,
            watermark_every,
            1,
            &registry,
        )
    }

    /// Builds the local worker with `shards` slicer threads for the
    /// node's sliced Desis groups — fixed-time-window groups merge by
    /// slice end, session/user-defined groups through the cross-shard
    /// unfixed merger (raw-shipping groups, other systems, and
    /// `shards <= 1` run sequentially on the node's event loop). The
    /// sharded slicers feed a per-group merger, so the uplink carries the
    /// same deterministic slice stream a sequential node would ship.
    /// They count (and, if it is profiled, time their stages) into
    /// `registry`; [`LocalWorker::finish`] publishes their telemetry
    /// there.
    pub fn with_shards(
        id: NodeId,
        system: DistributedSystem,
        groups: &[QueryGroup],
        batch_size: usize,
        watermark_every: DurationMs,
        shards: usize,
        registry: &Arc<MetricsRegistry>,
    ) -> Self {
        let mut worker = Self {
            id,
            system,
            groups: Vec::new(),
            sharded: None,
            sharded_gids: Vec::new(),
            sharded_queries: Vec::new(),
            merged: Vec::new(),
            batch: EventBatch::with_capacity(batch_size),
            needs_raw: false,
            batch_size,
            watermark_every,
            next_watermark: watermark_every,
            vouched: 0,
            scratch: Vec::new(),
            events: 0,
        };
        let mut shardable: Vec<QueryGroup> = Vec::new();
        for g in groups {
            let sliced = matches!(
                deployment(system, g),
                NodePlan::Core(GroupPlan::Aligned | GroupPlan::Unfixed)
            );
            if shards > 1 && sliced {
                shardable.push(g.clone());
            } else {
                worker.add_group(g);
            }
        }
        if shardable.is_empty() {
            return worker;
        }
        let mut cfg = ParallelConfig::new(shards);
        cfg.batch_size = batch_size.max(1);
        cfg.registry = Some(Arc::clone(registry));
        match ShardedSlicer::new(&shardable, &cfg) {
            Ok(sharded) => {
                worker.sharded = Some(sharded);
                worker.sharded_gids = shardable.iter().map(|g| g.id).collect();
                worker.sharded_queries = shardable
                    .iter()
                    .flat_map(|g| g.queries.iter().map(|cq| cq.query.id))
                    .collect();
            }
            // Could not spawn worker threads: degrade to the sequential
            // path rather than losing the groups.
            Err(_) => shardable.iter().for_each(|g| worker.add_group(g)),
        }
        worker
    }

    /// Enables causal slice tracing: the slicers of per-slice groups get
    /// ring-buffer recorders minting/recording `SliceCreated`/`SliceSealed`
    /// spans. Disco's window partials and raw batches carry no trace ids,
    /// so those groups stay untraced.
    pub fn install_tracing(&mut self, collector: &TraceCollector) {
        for group in &mut self.groups {
            if let Ship::Slices { .. } = group.ship {
                group.slicer.set_recorder(collector.recorder(self.id));
            }
        }
        if let Some(sharded) = &mut self.sharded {
            sharded.install_tracing(collector, self.id);
        }
    }

    /// Installs a new query-group at runtime (Section 3.2), on the node's
    /// own event loop; the same group (same id) must be registered at the
    /// root.
    pub fn add_group(&mut self, group: &QueryGroup) {
        let ship = match deployment(self.system, group) {
            NodePlan::Core(GroupPlan::Raw) | NodePlan::Centralized => {
                self.needs_raw = true;
                return;
            }
            NodePlan::Core(GroupPlan::Aligned) => Ship::Slices { ends: false },
            NodePlan::Core(GroupPlan::Unfixed) => Ship::Slices { ends: true },
            NodePlan::Partials => Ship::WindowPartials(PartialAssembler::new(group)),
        };
        let slicer = GroupSlicer::new(group.clone());
        self.groups.push(LocalGroup { slicer, ship });
    }

    /// Removes a query at runtime (Section 3.2): with `immediate`, its
    /// in-flight windows are dropped; otherwise they drain.
    pub fn remove_query(&mut self, id: QueryId, immediate: bool) -> bool {
        let mut removed = false;
        for group in &mut self.groups {
            removed |= group.slicer.remove_query(id, immediate);
        }
        if self.sharded_queries.contains(&id) {
            if let Some(sharded) = &mut self.sharded {
                sharded.remove_query(id, immediate);
                removed = true;
            }
        }
        removed
    }

    fn forward<'a>(&self, uplink: &'a mut LinkSender) -> Forward<'a> {
        Forward {
            id: self.id,
            coverage: 1,
            uplink,
        }
    }

    /// Ingests one event, sending any produced partials upstream.
    /// Returns `false` if the uplink is closed.
    pub fn on_event(&mut self, ev: &Event, uplink: &mut LinkSender) -> bool {
        let mut up = self.forward(uplink);
        self.events += 1;
        self.vouched = self.vouched.max(ev.ts);
        for group in &mut self.groups {
            group.slicer.on_event(ev, &mut self.scratch);
            if !group.ship(&mut self.scratch, &mut up) {
                return false;
            }
        }
        let sharded_flushed = match &mut self.sharded {
            Some(sharded) => sharded.on_event(ev),
            None => false,
        };
        if sharded_flushed && !self.ship_sharded(&mut up) {
            return false;
        }
        if self.needs_raw {
            self.batch.push(*ev);
            if self.batch.len() >= self.batch_size && !up.raw_batch(&mut self.batch) {
                return false;
            }
        }
        if ev.ts >= self.next_watermark && !self.send_watermark(ev.ts, &mut up) {
            return false;
        }
        true
    }

    /// Ships merged slices of the sharded groups upstream, exactly as
    /// the sequential path ships its per-group slices (coverage 1).
    /// Fixed-window merges carry no ends (the root re-derives their
    /// `ep`s from the specs); unfixed merges are self-contained
    /// per-window slices whose ends and session gaps ship as-is, byte-
    /// compatible with a sequential child's unfixed slice stream.
    fn ship_sharded(&mut self, up: &mut Forward<'_>) -> bool {
        let Some(sharded) = &mut self.sharded else {
            return true;
        };
        sharded.drain_merged(&mut self.merged);
        let gids = &self.sharded_gids;
        self.merged
            .drain(..)
            .all(|(group, partial)| match gids.get(group) {
                Some(&gid) => up.merged_slice(gid, partial),
                None => true,
            })
    }

    fn send_watermark(&mut self, ts: Timestamp, up: &mut Forward<'_>) -> bool {
        // A watermark never lowers what the node vouched for.
        let ts = ts.max(self.vouched);
        self.vouched = ts;
        self.next_watermark =
            next_multiple_after(ts, self.watermark_every).unwrap_or(Timestamp::MAX);
        // A watermark also drives local slicers so idle streams still
        // deliver (possibly empty) slices for completed windows.
        for group in &mut self.groups {
            group.slicer.on_watermark(ts, &mut self.scratch);
            if !group.ship(&mut self.scratch, up) {
                return false;
            }
        }
        if let Some(sharded) = &mut self.sharded {
            // Barrier: every shard acknowledges `ts` before the watermark
            // goes upstream, so the shipped slice stream is deterministic.
            sharded.on_watermark(ts);
        }
        self.ship_sharded(up) && up.raw_batch(&mut self.batch) && up.watermark(ts)
    }

    /// The next instant at which this node has something to say without
    /// data, strictly after the last one it vouched for: the earliest
    /// pending punctuation of its own slicers or the next point of the
    /// `watermark_every` grid, whichever comes first. Sharded and
    /// raw-shipped groups ride the grid — the shards' slicer state is not
    /// visible from the node's event loop, and only the root slices a raw
    /// group. `None` before the first event: a stream that has not begun
    /// has no clock.
    ///
    /// A live source calls [`LocalWorker::on_watermark`] at every such
    /// instant that passes before its next event, so results leave when
    /// they are due, not when the stream resumes.
    pub fn next_heartbeat(&self) -> Option<Timestamp> {
        if self.events == 0 {
            return None;
        }
        let punctuations = self
            .groups
            .iter()
            .filter_map(|g| g.slicer.next_punctuation());
        punctuations
            .chain([self.next_watermark])
            .filter(|t| *t > self.vouched)
            .min()
    }

    /// Advances event time to `ts` (or to what the node already vouched
    /// for, if that is later) without data: fires the slicers' pending
    /// punctuations, ships what they seal and tells the parent. Returns
    /// `false` if the uplink is closed.
    pub fn on_watermark(&mut self, ts: Timestamp, uplink: &mut LinkSender) -> bool {
        let mut up = self.forward(uplink);
        self.send_watermark(ts, &mut up)
    }

    /// Ends the stream: advances time by `horizon` past the last instant
    /// the node vouched for to fire pending windows, flushes batches, and
    /// sends `Flush`.
    pub fn finish(&mut self, horizon: DurationMs, uplink: &mut LinkSender) -> bool {
        let mut up = self.forward(uplink);
        if !self.send_watermark(self.vouched.saturating_add(horizon), &mut up) {
            return false;
        }
        if let Some(sharded) = &mut self.sharded {
            sharded.finish();
            sharded.publish(sharded.registry());
        }
        self.ship_sharded(&mut up) && up.end()
    }

    /// Slicer metrics summed over groups (including sharded workers,
    /// complete once [`LocalWorker::finish`] joined them).
    pub fn metrics(&self) -> EngineMetrics {
        let mut m = EngineMetrics::default();
        for group in &self.groups {
            m.absorb(group.slicer.metrics());
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

/// The child-facing half of every non-leaf node: per-child event-time
/// progress, the mergers that fold the children's streams into one, and
/// the only state machine over the five message kinds. What the mergers
/// release goes to the node's [`Upstream`].
#[derive(Debug)]
struct Children {
    clock: ChildClock,
    /// Local streams a merged product must cover to be complete.
    expected: u32,
    aligned: BTreeMap<GroupId, AlignedSliceMerger>,
    /// Disco merges per-window partials of all groups with one merger
    /// (windows are identified by query + range).
    partials: Option<WindowPartialMerger>,
    /// Reorders the children's raw event streams into one
    /// timestamp-ordered stream.
    events: Option<EventMerger>,
    /// The effective child watermark handed upstream so far.
    applied: Timestamp,
    ended: bool,
    /// Checksum-valid messages this node had no route for.
    unroutable: u64,
    slice_scratch: Vec<SealedSlice>,
    event_scratch: Vec<Event>,
}

impl Children {
    fn new(
        system: DistributedSystem,
        groups: &[QueryGroup],
        children: Vec<NodeId>,
        expected: u32,
    ) -> Self {
        let mut this = Self {
            clock: ChildClock::new(children),
            expected,
            aligned: BTreeMap::new(),
            partials: None,
            events: None,
            applied: 0,
            ended: false,
            unroutable: 0,
            slice_scratch: Vec::new(),
            event_scratch: Vec::new(),
        };
        for g in groups {
            this.add_group(system, g);
        }
        if groups
            .iter()
            .any(|g| deployment(system, g) == NodePlan::Partials)
        {
            this.partials = Some(WindowPartialMerger::new(&merge_groups(groups), expected));
        }
        this
    }

    fn add_group(&mut self, system: DistributedSystem, group: &QueryGroup) {
        match deployment(system, group) {
            NodePlan::Core(GroupPlan::Aligned) => {
                let merger = AlignedSliceMerger::new(self.expected);
                self.aligned.insert(group.id, merger);
            }
            NodePlan::Core(GroupPlan::Raw) | NodePlan::Centralized => self.reorder_raw(),
            NodePlan::Core(GroupPlan::Unfixed) | NodePlan::Partials => {}
        }
    }

    /// Makes this node reorder raw events. Each direct child delivers one
    /// ordered raw stream (intermediates reorder their subtree).
    fn reorder_raw(&mut self) {
        let children = self.clock.children.len();
        self.events
            .get_or_insert_with(|| EventMerger::new(children));
    }

    fn install_tracing(&mut self, collector: &TraceCollector, node: NodeId) {
        for merger in self.aligned.values_mut() {
            merger.set_recorder(collector.recorder(node));
        }
    }

    /// Handles one message from child `child`. A message the node has no
    /// merger for — a child speaking another system's protocol — must
    /// not bring the node down: it is dropped and counted.
    fn on_message(&mut self, child: NodeId, msg: Message, up: &mut impl Upstream) -> bool {
        match msg {
            Message::Events(events) => {
                match &mut self.events {
                    Some(merger) => merger.on_events(child, events),
                    None => self.unroutable += 1,
                }
                self.release_events(up)
            }
            Message::Slice {
                group,
                origin,
                coverage,
                partial,
            } => match self.aligned.get_mut(&group) {
                Some(merger) => {
                    merger.on_slice(partial, coverage);
                    merger.drain_ready(&mut self.slice_scratch);
                    self.slice_scratch
                        .drain(..)
                        .all(|merged| up.merged_slice(group, merged))
                }
                None => up.child_slice(group, origin, coverage, partial),
            },
            Message::WindowPartials {
                partials, coverage, ..
            } => {
                let Some(merger) = &mut self.partials else {
                    self.unroutable += 1;
                    return true;
                };
                let merged: Vec<WindowPartial> = partials
                    .into_iter()
                    .filter_map(|p| merger.on_partial(p, coverage))
                    .collect();
                merged.is_empty() || up.merged_partials(merged, merger)
            }
            Message::Watermark(ts) => {
                self.clock.on_watermark(child, ts);
                if let Some(merger) = &mut self.events {
                    merger.on_watermark(child, ts);
                }
                self.release_events(up) && self.advance(up)
            }
            Message::Flush => {
                self.clock.on_flush(child);
                if let Some(merger) = &mut self.events {
                    merger.on_flush(child);
                }
                self.release_events(up) && self.advance(up)
            }
        }
    }

    /// Hands raw events that became releasable upstream.
    fn release_events(&mut self, up: &mut impl Upstream) -> bool {
        let Some(merger) = &mut self.events else {
            return true;
        };
        merger.drain_ready(&mut self.event_scratch);
        self.event_scratch.is_empty() || up.events(&mut self.event_scratch)
    }

    /// Applies the effective child watermark once it moved: force-
    /// completes aligned merges over idle streams, then tells upstream;
    /// and tells upstream, once, when every child has flushed.
    fn advance(&mut self, up: &mut impl Upstream) -> bool {
        let effective = self.clock.effective();
        if effective > self.applied {
            self.applied = effective;
            for (gid, merger) in &mut self.aligned {
                merger.advance_watermark(effective);
                merger.drain_ready(&mut self.slice_scratch);
                let mut merged = self.slice_scratch.drain(..);
                if !merged.all(|slice| up.merged_slice(*gid, slice)) {
                    return false;
                }
            }
            if !up.watermark(effective) {
                return false;
            }
        }
        if self.clock.all_flushed() && !self.ended {
            self.ended = true;
            return up.end();
        }
        true
    }

    /// Partials held back waiting for sibling streams.
    fn pending(&self) -> usize {
        let slices: usize = self.aligned.values().map(|m| m.pending_len()).sum();
        slices + self.partials.as_ref().map_or(0, |m| m.pending_len())
    }

    fn unroutable(&self) -> u64 {
        self.unroutable + self.partials.as_ref().map_or(0, |m| m.unroutable())
    }
}

/// An intermediate node: merges child partials and forwards them upward;
/// raw events are reordered into one stream.
#[derive(Debug)]
pub struct IntermediateWorker {
    id: NodeId,
    /// Covered local streams below this node.
    coverage: u32,
    children: Children,
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
        let mut children = Children::new(system, groups, children, coverage);
        // Always, not only for the groups known now: a runtime-added
        // raw-shipped group is never announced to intermediates.
        children.reorder_raw();
        Self {
            id,
            coverage,
            children,
        }
    }

    /// Enables causal slice tracing on the slice mergers: merged slices
    /// record `MergeStart`/`MergeDone` spans under the representative
    /// trace id of the first contributing child slice.
    pub fn install_tracing(&mut self, collector: &TraceCollector) {
        self.children.install_tracing(collector, self.id);
    }

    /// Handles one message from child `child`; forwards upward as needed.
    /// Returns `false` if the uplink closed.
    pub fn on_message(&mut self, child: NodeId, msg: Message, uplink: &mut LinkSender) -> bool {
        let mut up = Forward {
            id: self.id,
            coverage: self.coverage,
            uplink,
        };
        self.children.on_message(child, msg, &mut up)
    }

    /// Whether every child has flushed.
    pub fn finished(&self) -> bool {
        self.children.clock.all_flushed()
    }

    /// Partials currently held back waiting for sibling streams (the
    /// merge-stall depth reported to the metrics registry).
    pub fn pending_merges(&self) -> usize {
        self.children.pending()
    }

    /// Checksum-valid messages dropped for want of a route.
    pub(crate) fn unroutable(&self) -> u64 {
        self.children.unroutable()
    }
}

/// Merges multiple groups into one pseudo-group for per-query lookups
/// across group boundaries (Disco's window merger).
fn merge_groups(groups: &[QueryGroup]) -> QueryGroup {
    let queries = groups.iter().flat_map(|g| &g.queries);
    let members = queries.map(|cq| (cq.query.clone(), 0)).collect();
    QueryGroup::build(0, members, vec![desis_core::predicate::Predicate::True])
}

/// The root's end of the tree: ends every group in the core terminal of
/// its plan and collects the final results.
struct Terminal {
    groups: BTreeMap<GroupId, GroupTerminal>,
    /// The per-origin mergers in front of the unfixed groups' terminals
    /// (intermediates pass those slices through unmerged).
    unfixed: BTreeMap<GroupId, UnfixedMerger<NodeId>>,
    /// Scripted removals event time has not passed yet, ascending:
    /// `(event time, query, immediate)`.
    removals: VecDeque<(Timestamp, QueryId, bool)>,
    centralized: Option<Box<dyn Processor>>,
    results: Vec<QueryResult>,
    raw_events: u64,
    /// Checksum-valid slices of groups the root cannot route.
    unroutable: u64,
}

impl Terminal {
    fn add_group(&mut self, system: DistributedSystem, g: &QueryGroup, n_leaves: usize) {
        // Window partials are merged by the shared window-partial merger
        // and the centralized engine does its own processing: no
        // per-group machinery.
        let NodePlan::Core(plan) = deployment(system, g) else {
            return;
        };
        if plan == GroupPlan::Unfixed {
            self.unfixed.insert(g.id, UnfixedMerger::new(g, n_leaves));
        }
        let terminal = GroupTerminal::new(plan, g);
        self.groups.insert(g.id, terminal);
    }

    /// Schedules the removal of `query` at event time `at`. An aligned
    /// terminal reads the retirement rule off its slice stream, whenever
    /// it is told, so it is told now; whatever slices or merges per
    /// origin is told when event time has passed it ([`Terminal::reach`]).
    fn remove_query(&mut self, query: QueryId, at: Timestamp, immediate: bool) {
        for group in self.groups.values_mut() {
            if matches!(group, GroupTerminal::Aligned(_)) {
                group.remove_query(query, at, immediate, &mut self.results);
            }
        }
        let pos = self.removals.partition_point(|(due, ..)| *due <= at);
        self.removals.insert(pos, (at, query, immediate));
    }

    /// Applies the removals scheduled at or before `ts`, which event time
    /// has passed — every event at or below `ts` is in: an immediate one
    /// purges what the unfixed mergers still hold for the query, and
    /// slicing terminals stop its windows at that instant.
    fn reach(&mut self, ts: Timestamp) {
        while let Some((at, query, immediate)) = self.removals.pop_front_if(|r| r.0 <= ts) {
            if immediate {
                for merger in self.unfixed.values_mut() {
                    merger.remove_query(query);
                }
            }
            for group in self.groups.values_mut() {
                group.remove_query(query, at, immediate, &mut self.results);
            }
        }
    }

    /// Hands the windows the unfixed mergers completed to their terminals.
    fn assemble_unfixed(&mut self) {
        for (gid, merger) in &mut self.unfixed {
            if let Some(terminal) = self.groups.get_mut(gid) {
                for window in merger.take_ready() {
                    terminal.on_slice(window, &mut self.results);
                }
            }
        }
    }
}

impl Upstream for Terminal {
    fn events(&mut self, events: &mut Vec<Event>) -> bool {
        self.raw_events += events.len() as u64;
        for ev in events.drain(..) {
            if self.removals.front().is_some_and(|r| r.0 < ev.ts) {
                self.reach(ev.ts - 1);
            }
            for group in self.groups.values_mut() {
                group.on_event(&ev, &mut self.results);
            }
            if let Some(p) = &mut self.centralized {
                p.on_event(&ev);
            }
        }
        if let Some(p) = &mut self.centralized {
            self.results.extend(p.drain_results());
        }
        true
    }

    fn merged_slice(&mut self, group: GroupId, slice: SealedSlice) -> bool {
        if let Some(terminal) = self.groups.get_mut(&group) {
            terminal.on_slice(slice, &mut self.results);
        }
        true
    }

    fn child_slice(
        &mut self,
        group: GroupId,
        origin: NodeId,
        _: u32,
        partial: SealedSlice,
    ) -> bool {
        match self.unfixed.get_mut(&group) {
            Some(merger) => {
                merger.on_slice(origin, partial);
                self.assemble_unfixed();
            }
            // Input from outside the process: a slice of a group that is
            // unknown here, or that the root re-slices from raw events.
            None => self.unroutable += 1,
        }
        true
    }

    fn merged_partials(
        &mut self,
        partials: Vec<WindowPartial>,
        merger: &WindowPartialMerger,
    ) -> bool {
        for partial in &partials {
            merger.finalize(partial, &mut self.results);
        }
        true
    }

    fn watermark(&mut self, ts: Timestamp) -> bool {
        // A watermark at `ts` vouches for what lies below it: raw events
        // *at* `ts` may still be held behind a lower child
        // ([`EventMerger`]), so a removal at `ts` waits for the first
        // event or watermark past it.
        if let Some(passed) = ts.checked_sub(1) {
            self.reach(passed);
        }
        // Idle children produce no slices but still vouch for time.
        for merger in self.unfixed.values_mut() {
            merger.advance(ts);
        }
        self.assemble_unfixed();
        for group in self.groups.values_mut() {
            group.on_watermark(ts, &mut self.results);
        }
        if let Some(p) = &mut self.centralized {
            p.on_watermark(ts);
            self.results.extend(p.drain_results());
        }
        true
    }

    /// End of all streams: nothing can extend a pending session any more.
    fn end(&mut self) -> bool {
        for merger in self.unfixed.values_mut() {
            merger.flush();
        }
        self.assemble_unfixed();
        true
    }
}

/// The root node: merges partials, terminates windows, emits results.
pub struct RootWorker {
    children: Children,
    terminal: Terminal,
}

impl std::fmt::Debug for RootWorker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RootWorker")
            .field("children", &self.children)
            .field("groups", &self.terminal.groups)
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
        let registry = Arc::default();
        Self::with_registry(system, groups, all_queries, n_leaves, children, &registry)
    }

    /// [`RootWorker::new`] in the context of a run's `registry`: a
    /// centralized system's engine is built in it
    /// ([`desis_baselines::SystemKind::build_in`]).
    pub fn with_registry(
        system: DistributedSystem,
        groups: &[QueryGroup],
        all_queries: &[Query],
        n_leaves: usize,
        children: Vec<NodeId>,
        registry: &Arc<MetricsRegistry>,
    ) -> Result<Self, desis_core::DesisError> {
        let centralized = match system {
            DistributedSystem::Centralized(kind) => {
                Some(kind.build_in(all_queries.to_vec(), registry)?)
            }
            DistributedSystem::Desis | DistributedSystem::Disco => None,
        };
        let mut terminal = Terminal {
            groups: BTreeMap::new(),
            unfixed: BTreeMap::new(),
            removals: VecDeque::new(),
            centralized,
            results: Vec::new(),
            raw_events: 0,
            unroutable: 0,
        };
        for g in groups {
            terminal.add_group(system, g, n_leaves);
        }
        Ok(Self {
            children: Children::new(system, groups, children, n_leaves as u32),
            terminal,
        })
    }

    /// Enables causal slice tracing at the root under node id `node` (the
    /// root worker itself is topology-agnostic): mergers record
    /// `MergeStart`/`MergeDone` and assemblers `WindowAssembled`/
    /// `ResultEmitted` spans. Window-partial and centralized paths carry
    /// no trace ids and stay untraced.
    pub fn install_tracing(&mut self, collector: &TraceCollector, node: NodeId) {
        self.children.install_tracing(collector, node);
        for merger in self.terminal.unfixed.values_mut() {
            merger.set_recorder(collector.recorder(node));
        }
        for group in self.terminal.groups.values_mut() {
            group.set_recorder(collector.recorder(node));
        }
    }

    /// Installs a new query-group at runtime (Section 3.2). The group must
    /// carry the same id the local nodes use.
    pub fn add_group(&mut self, system: DistributedSystem, group: &QueryGroup, n_leaves: usize) {
        self.children.add_group(system, group);
        self.terminal.add_group(system, group, n_leaves);
    }

    /// Schedules the removal of `query` at event time `at` (runtime
    /// removal, Section 3.2), where the locals apply it too: its windows
    /// that ended by then still emit, with a draining removal
    /// (`immediate == false`) also those that had started — the sequential
    /// engine's answer. May be told ahead of time.
    pub fn remove_query(&mut self, query: QueryId, at: Timestamp, immediate: bool) {
        self.terminal.remove_query(query, at, immediate);
    }

    /// Handles one message from a direct child.
    pub fn on_message(&mut self, child: NodeId, msg: Message) {
        self.children.on_message(child, msg, &mut self.terminal);
    }

    /// Whether every child flushed.
    pub fn finished(&self) -> bool {
        self.children.clock.all_flushed()
    }

    /// Takes the results produced since the last drain.
    pub fn drain_results(&mut self) -> Vec<QueryResult> {
        std::mem::take(&mut self.terminal.results)
    }

    /// Events the root itself had to process raw (Figure 7d: the root is
    /// the bottleneck for non-decomposable functions).
    pub fn raw_events_processed(&self) -> u64 {
        self.terminal.raw_events
    }

    /// Partials currently held back waiting for sibling streams (the
    /// merge-stall depth reported to the metrics registry).
    pub fn pending_merges(&self) -> usize {
        let unfixed = self.terminal.unfixed.values().map(|m| m.pending_len());
        self.children.pending() + unfixed.sum::<usize>()
    }

    /// `(slices, suffix-cache bundles)` the terminals and the unfixed
    /// mergers retain for open windows.
    pub(crate) fn retained_state(&self) -> (usize, usize) {
        let mut retained = (0, 0);
        for merger in self.terminal.unfixed.values() {
            retained.0 += merger.retained_slices();
            retained.1 += merger.cached_bundles();
        }
        let mut counters = EngineMetrics::default();
        for group in self.terminal.groups.values() {
            group.roll_up(&mut counters, &mut retained);
        }
        retained
    }

    /// Checksum-valid messages dropped for want of a route.
    pub(crate) fn unroutable(&self) -> u64 {
        self.children.unroutable() + self.terminal.unroutable
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
    let (sharing, deployment) = match system {
        DistributedSystem::Desis => (SharingPolicy::Full, Deployment::Decentralized),
        DistributedSystem::Disco => (SharingPolicy::PerFunction, Deployment::Decentralized),
        // Centralized systems do their own analysis at the root.
        DistributedSystem::Centralized(_) => (SharingPolicy::Full, Deployment::Centralized),
    };
    QueryAnalyzer::new(sharing, deployment).analyze(queries)
}

#[cfg(test)]
mod tests;
