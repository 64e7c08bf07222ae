//! The sharded slicer: inlet batching, the shard worker threads, and the
//! collector-side merge of per-shard slices back into one deterministic
//! slice stream per group.

use std::sync::Arc;

use super::handoff::{Inbox, ShardExit};
use super::shard::{run_shard, ShardItem, ShardMsg};
use super::unfixed::UnfixedShardMerger;
use super::ParallelConfig;
use crate::engine::merge::AlignedSliceMerger;
use crate::engine::slice::SealedSlice;
use crate::engine::slicer::GroupSlicer;
use crate::engine::terminal::GroupPlan;
use crate::engine::QueryGroup;
use crate::error::DesisError;
use crate::event::{Event, EventBatch};
use crate::metrics::EngineMetrics;
use crate::obs::prof::{self, ProfHandle, Stage};
use crate::obs::trace::{TraceCollector, TraceRecorder};
use crate::obs::{names, Counter, MetricsRegistry};
use crate::predicate::Predicate;
use crate::query::QueryId;
use crate::time::{DurationMs, Timestamp};

/// Per-shard channel capacity in batches (bounded channels give
/// backpressure, i.e. sustainable throughput).
const CHANNEL_CAPACITY: usize = 64;

/// The per-group collector-side merger: fixed-only groups align by
/// slice-end timestamp — a shard is a child covering one stream — and
/// groups with session/user-defined windows merge by span overlap and
/// clear frontiers.
#[derive(Debug)]
enum GroupMerger {
    Fixed(AlignedSliceMerger),
    Unfixed(UnfixedShardMerger),
}

impl GroupMerger {
    /// The merger of `group`'s plan (a count group is not sliced on the
    /// shards and has none).
    fn for_group(group: &QueryGroup, shards: usize) -> Self {
        match GroupPlan::of(group) {
            GroupPlan::Aligned => GroupMerger::Fixed(AlignedSliceMerger::new(shards as u32)),
            GroupPlan::Unfixed | GroupPlan::Raw => {
                GroupMerger::Unfixed(UnfixedShardMerger::new(group, shards))
            }
        }
    }

    fn on_slice(&mut self, shard: usize, slice: SealedSlice) {
        match self {
            GroupMerger::Fixed(m) => m.on_slice(slice, 1),
            GroupMerger::Unfixed(m) => m.on_slice(shard, slice),
        }
    }

    fn on_clears(&mut self, shard: usize, clears: &[(usize, Timestamp)]) {
        if let GroupMerger::Unfixed(m) = self {
            m.on_clears(shard, clears);
        }
    }

    fn advance(&mut self, wm: Timestamp) {
        match self {
            GroupMerger::Fixed(m) => m.advance_watermark(wm),
            GroupMerger::Unfixed(m) => m.advance(wm),
        }
    }

    fn mark_dead(&mut self, shard: usize) {
        if let GroupMerger::Unfixed(m) = self {
            m.mark_dead(shard);
        }
    }

    /// Whether windows of query `id` can be pending in this merger (the
    /// fixed merger keeps no per-query state).
    fn merges_query(&self, id: QueryId) -> bool {
        matches!(self, GroupMerger::Unfixed(m) if m.merges_query(id))
    }

    /// Purges merger-side state of an immediately-removed query.
    fn remove_query(&mut self, id: QueryId) {
        if let GroupMerger::Unfixed(m) = self {
            m.remove_query(id);
        }
    }

    fn set_recorder(&mut self, recorder: TraceRecorder) {
        match self {
            GroupMerger::Fixed(m) => m.set_recorder(recorder),
            GroupMerger::Unfixed(m) => m.set_recorder(recorder),
        }
    }

    fn drain_ready(&mut self, group: usize, out: &mut Vec<(usize, SealedSlice)>) {
        match self {
            GroupMerger::Fixed(m) => out.extend(m.take_ready().map(|s| (group, s))),
            GroupMerger::Unfixed(m) => m.drain_ready(group, out),
        }
    }

    /// The stage this merger's work is timed as.
    fn prof_stage(&self) -> Stage {
        match self {
            GroupMerger::Fixed(_) => Stage::ShardMerge,
            GroupMerger::Unfixed(_) => Stage::UnfixedMerge,
        }
    }
}

/// Lifecycle of one shard as seen by the collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShardState {
    Running,
    Done,
    Degraded,
}

/// Runs the slicers of a set of sharded groups (fixed time windows
/// *and* session/user-defined windows) across N worker threads,
/// partitioned by `key % shards`, and merges the per-shard sealed
/// slices back into one deterministic slice stream per group. Count
/// query-groups ride along as shard-side selection filters whose
/// matches the collector replays sequentially
/// ([`ShardedSlicer::take_count_events`]).
///
/// This is the engine-internal building block shared by
/// [`super::ParallelEngine`] (which assembles windows from the merged stream)
/// and the decentralized local node (which ships the merged stream to
/// its parent exactly as if one sequential slicer had produced it).
#[derive(Debug)]
pub struct ShardedSlicer {
    senders: Vec<crossbeam_channel::Sender<ShardMsg>>,
    threads: Vec<std::thread::JoinHandle<()>>,
    inbox: Arc<Inbox<ShardItem>>,
    mergers: Vec<GroupMerger>,
    frontiers: Vec<Timestamp>,
    states: Vec<ShardState>,
    inlet: EventBatch,
    batch_size: usize,
    /// Event time every shard's slicers may be advanced to without
    /// turning away an event the lateness bound still allows: the newest
    /// flushed timestamp (less the lateness) or watermark. `None` until
    /// the first event is flushed — slicers start with their first event.
    reached: Option<Timestamp>,
    lateness: Option<DurationMs>,
    shards: usize,
    /// Broadcast marker events to every shard (any group has
    /// user-defined windows).
    broadcast: bool,
    /// Tag batches with inlet sequence numbers (count filters are
    /// installed).
    stamp: bool,
    seq: u64,
    /// Per-replay-slot count events collected from the shard filters.
    count_buf: Vec<Vec<(u64, Event)>>,
    panics: u64,
    /// [`ParallelConfig::registry`], or a private one.
    registry: Arc<MetricsRegistry>,
    /// Per-shard `(events, batches)` counters of the registry, resolved
    /// once at spawn: the inlet's only tally of what it sent where.
    sent: Vec<(Arc<Counter>, Arc<Counter>)>,
    /// The registry's `driver` lane (ingest/barrier/merge stages).
    pub(super) prof: Option<ProfHandle>,
    collected: EngineMetrics,
    late_dropped: u64,
    item_buf: Vec<ShardItem>,
    finished: bool,
}

impl ShardedSlicer {
    /// Spawns `cfg.shards` worker threads, each owning one slicer per
    /// group in `groups` (fixed-window groups merge by slice end,
    /// session/user-defined groups by span overlap).
    pub fn new(groups: &[QueryGroup], cfg: &ParallelConfig) -> Result<Self, DesisError> {
        Self::with_counts(groups, &[], cfg)
    }

    /// Like [`ShardedSlicer::new`], additionally installing one
    /// shard-side selection filter per count query-group: matching
    /// events come back through [`ShardedSlicer::take_count_events`]
    /// tagged with inlet sequence numbers for ordered replay.
    pub fn with_counts(
        groups: &[QueryGroup],
        count_groups: &[QueryGroup],
        cfg: &ParallelConfig,
    ) -> Result<Self, DesisError> {
        let shards = cfg.shards.max(1);
        let registry = cfg.registry.clone().unwrap_or_default();
        let inbox = Arc::new(Inbox::new(shards));
        let mut senders = Vec::with_capacity(shards);
        let mut threads = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (tx, rx) = crossbeam_channel::bounded(CHANNEL_CAPACITY);
            let slicers: Vec<GroupSlicer> =
                groups.iter().map(|g| GroupSlicer::new(g.clone())).collect();
            let lateness = cfg.lateness;
            let inbox = Arc::clone(&inbox);
            let lane = registry.lane(&format!("shard{shard}"));
            let handle = std::thread::Builder::new()
                .name(format!("desis-shard-{shard}"))
                .spawn(move || run_shard(shard, shards, slicers, lateness, rx, inbox, lane))
                .map_err(|_| DesisError::Cluster("failed to spawn shard worker thread"))?;
            senders.push(tx);
            threads.push(handle);
        }
        let sent = (0..shards)
            .map(|shard| {
                (
                    registry.counter(&names::engine_shard_events(shard)),
                    registry.counter(&names::engine_shard_batches(shard)),
                )
            })
            .collect();
        let this = Self {
            senders,
            threads,
            inbox,
            mergers: groups
                .iter()
                .map(|g| GroupMerger::for_group(g, shards))
                .collect(),
            frontiers: vec![0; shards],
            states: vec![ShardState::Running; shards],
            inlet: EventBatch::with_capacity(cfg.batch_size.max(1)),
            batch_size: cfg.batch_size.max(1),
            reached: None,
            lateness: cfg.lateness,
            shards,
            broadcast: groups.iter().any(|g| !g.user_defined_queries().is_empty()),
            stamp: !count_groups.is_empty(),
            seq: 0,
            count_buf: vec![Vec::new(); count_groups.len()],
            panics: 0,
            prof: registry.lane("driver"),
            registry,
            sent,
            collected: EngineMetrics::default(),
            late_dropped: 0,
            item_buf: Vec::new(),
            finished: false,
        };
        for (replay, g) in count_groups.iter().enumerate() {
            let predicates: Vec<Predicate> = g.selections.iter().map(|s| s.predicate).collect();
            for tx in &this.senders {
                let _ = tx.send(ShardMsg::AddCountFilter(replay, predicates.clone()));
            }
        }
        Ok(this)
    }

    /// Shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of sharded groups.
    pub fn group_count(&self) -> usize {
        self.mergers.len()
    }

    /// Shard workers that panicked and were degraded.
    pub fn shard_panics(&self) -> u64 {
        self.panics
    }

    /// Events dropped as too late by the per-shard reorder buffers
    /// (complete only after [`ShardedSlicer::finish`]).
    pub fn late_dropped(&self) -> u64 {
        self.late_dropped
    }

    /// Enables causal tracing: every shard worker mints per-slicer ring
    /// recorders for `node`, and the merge-back records
    /// `MergeStart`/`MergeDone` spans.
    pub fn install_tracing(&mut self, collector: &TraceCollector, node: u32) {
        for tx in &self.senders {
            let _ = tx.send(ShardMsg::Install(collector.clone(), node));
        }
        for merger in &mut self.mergers {
            merger.set_recorder(collector.recorder(node));
        }
    }

    /// Removes a query at runtime on every shard and returns the event
    /// time the removal took effect at: the stream's newest, which every
    /// shard's slicers are advanced to first so they all apply the
    /// retirement rule at the same instant (`None` before the first
    /// event: nothing is open yet). With `immediate` the collector-side
    /// merger state of an unfixed group is purged too — behind a
    /// watermark barrier, so the windows its shards completed before the
    /// removal are merged and released first; a draining removal keeps it
    /// so in-flight windows still complete (shards report the query's
    /// slot gone once drained, which releases any remainder).
    pub fn remove_query(&mut self, id: QueryId, immediate: bool) -> Option<Timestamp> {
        // Flush first so the removal lands between the events ingested
        // before and after this call, like the sequential engine's.
        self.flush_inlet();
        let purge = immediate && self.mergers.iter().any(|m| m.merges_query(id));
        if let Some(at) = self.reached {
            if purge {
                self.on_watermark(at);
            } else {
                for tx in &self.senders {
                    let _ = tx.send(ShardMsg::Watermark(at));
                }
            }
        }
        for tx in &self.senders {
            let _ = tx.send(ShardMsg::Remove { id, immediate });
        }
        if purge {
            for merger in &mut self.mergers {
                merger.remove_query(id);
            }
        }
        self.reached
    }

    /// Adds a query-group at runtime: one more slicer on every shard
    /// and a matching collector-side merger. Returns the group's index
    /// in the merged-slice stream. The group starts processing with the
    /// next ingested event (the inlet is flushed first).
    pub fn add_group(&mut self, group: QueryGroup) -> usize {
        self.flush_inlet();
        self.broadcast |= !group.user_defined_queries().is_empty();
        self.mergers
            .push(GroupMerger::for_group(&group, self.shards));
        for tx in &self.senders {
            let _ = tx.send(ShardMsg::AddGroup(group.clone()));
        }
        self.mergers.len() - 1
    }

    /// Adds a count-query replay slot at runtime: every shard starts
    /// forwarding events matching any of `predicates`, tagged with
    /// inlet sequence numbers. Returns the replay slot index.
    pub fn add_count_filter(&mut self, predicates: Vec<Predicate>) -> usize {
        self.flush_inlet();
        self.stamp = true;
        self.count_buf.push(Vec::new());
        let replay = self.count_buf.len() - 1;
        for tx in &self.senders {
            let _ = tx.send(ShardMsg::AddCountFilter(replay, predicates.clone()));
        }
        replay
    }

    /// Drains the count-query events forwarded for replay slot
    /// `replay`. The set is complete (for everything up to a watermark)
    /// only right after [`ShardedSlicer::on_watermark`] or
    /// [`ShardedSlicer::finish`]; sort by the sequence tag to restore
    /// global ingest order.
    pub fn take_count_events(&mut self, replay: usize) -> Vec<(u64, Event)> {
        self.collect();
        self.count_buf
            .get_mut(replay)
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Ingests one event; returns `true` when the inlet batch filled and
    /// was flushed to the shards (a natural point to drain merged
    /// slices).
    #[inline]
    pub fn on_event(&mut self, ev: &Event) -> bool {
        self.inlet.push(*ev);
        if self.inlet.len() >= self.batch_size {
            self.flush_inlet();
            return true;
        }
        false
    }

    /// Ingests a pre-built batch.
    pub fn on_batch(&mut self, batch: &EventBatch) {
        for ev in batch {
            self.inlet.push(*ev);
        }
        if self.inlet.len() >= self.batch_size {
            self.flush_inlet();
        }
    }

    /// Counts a partition sent to `shard` (pre-resolved counters — no
    /// name formatting on this path).
    #[inline]
    fn note_send(&self, shard: usize, events: u64) {
        self.sent[shard].0.add(events);
        self.sent[shard].1.inc();
    }

    fn flush_inlet(&mut self) {
        if self.inlet.is_empty() {
            return;
        }
        let ingest = prof::stamp(&self.prof);
        if let Some(last) = self.inlet.as_slice().last() {
            let settled = last
                .ts
                .saturating_sub(self.lateness.map_or(0, |l| l.saturating_add(1)));
            self.reached = self.reached.max(Some(settled));
        }
        self.flush_inlet_inner();
        prof::record(&mut self.prof, Stage::Ingest, ingest);
    }

    fn flush_inlet_inner(&mut self) {
        if self.stamp {
            // Count filters installed: tag every event with its global
            // inlet sequence number so the collector can restore ingest
            // order across shards. Markers still broadcast (each copy
            // keeps the original's sequence number; only the owning
            // shard forwards it to the count filters).
            let inlet =
                std::mem::replace(&mut self.inlet, EventBatch::with_capacity(self.batch_size));
            let mut parts: Vec<Vec<(u64, Event)>> = vec![Vec::new(); self.shards];
            for ev in &inlet {
                let seq = self.seq;
                self.seq += 1;
                if self.broadcast && ev.marker.is_some() {
                    for part in &mut parts {
                        part.push((seq, *ev));
                    }
                } else {
                    parts[ev.key as usize % self.shards].push((seq, *ev));
                }
            }
            for (shard, part) in parts.into_iter().enumerate() {
                if part.is_empty() {
                    continue;
                }
                self.note_send(shard, part.len() as u64);
                let _ = self.senders[shard].send(ShardMsg::SeqBatch(part));
            }
            return;
        }
        if self.broadcast {
            // User-defined windows close at markers, which every shard
            // must observe at the same stream position: copy marker
            // events into every part, in place.
            let inlet =
                std::mem::replace(&mut self.inlet, EventBatch::with_capacity(self.batch_size));
            let mut parts: Vec<Vec<Event>> = vec![Vec::new(); self.shards];
            for ev in &inlet {
                if ev.marker.is_some() {
                    for part in &mut parts {
                        part.push(*ev);
                    }
                } else {
                    parts[ev.key as usize % self.shards].push(*ev);
                }
            }
            for (shard, part) in parts.into_iter().enumerate() {
                if part.is_empty() {
                    continue;
                }
                self.note_send(shard, part.len() as u64);
                let _ = self.senders[shard].send(ShardMsg::Batch(part));
            }
            return;
        }
        let parts = self.inlet.partition_by_key(self.shards);
        self.inlet = EventBatch::with_capacity(self.batch_size);
        for (shard, part) in parts.into_iter().enumerate() {
            if part.is_empty() {
                continue;
            }
            self.note_send(shard, part.len() as u64);
            // A failed send means the worker died; the panic surfaces
            // through the inbox guard on the next collect.
            let _ = self.senders[shard].send(ShardMsg::Batch(part));
        }
    }

    /// Flushes the inlet and broadcasts a watermark, then **blocks**
    /// until every live shard acknowledged it — the barrier that makes
    /// results deterministic: after this returns, everything implied by
    /// the events and watermarks ingested so far is in the mergers.
    pub fn on_watermark(&mut self, ts: Timestamp) {
        self.flush_inlet();
        self.reached = self.reached.map(|reached| reached.max(ts));
        for tx in &self.senders {
            let _ = tx.send(ShardMsg::Watermark(ts));
        }
        let barrier = prof::stamp(&self.prof);
        loop {
            self.collect();
            let reached = self
                .states
                .iter()
                .zip(&self.frontiers)
                .all(|(state, frontier)| *state != ShardState::Running || *frontier >= ts);
            if reached {
                break;
            }
            std::thread::yield_now();
        }
        prof::record(&mut self.prof, Stage::Barrier, barrier);
    }

    /// Drains handoff items from every shard into the mergers and
    /// advances the mergers' forced watermark to the minimum live shard
    /// frontier.
    fn collect(&mut self) {
        for shard in 0..self.shards {
            let exit = self.inbox.drain(shard, &mut self.item_buf);
            for item in self.item_buf.drain(..) {
                match item {
                    ShardItem::Slices { group, slices } => {
                        if let Some(merger) = self.mergers.get_mut(group) {
                            let stage = merger.prof_stage();
                            let t0 = prof::stamp(&self.prof);
                            for slice in slices {
                                merger.on_slice(shard, slice);
                            }
                            prof::record(&mut self.prof, stage, t0);
                        }
                    }
                    ShardItem::Clears { group, clears } => {
                        if let Some(merger) = self.mergers.get_mut(group) {
                            merger.on_clears(shard, &clears);
                        }
                    }
                    ShardItem::CountEvents { replay, items } => {
                        if let Some(buf) = self.count_buf.get_mut(replay) {
                            buf.extend(items);
                        }
                    }
                    ShardItem::Frontier(ts) => {
                        if ts > self.frontiers[shard] {
                            self.frontiers[shard] = ts;
                        }
                    }
                    ShardItem::Done {
                        metrics,
                        late_dropped,
                    } => {
                        self.collected.absorb(&metrics);
                        self.late_dropped += late_dropped;
                    }
                }
            }
            if self.states[shard] == ShardState::Running {
                match exit {
                    Some(ShardExit::Clean) => self.states[shard] = ShardState::Done,
                    Some(ShardExit::Panicked) => {
                        // Degrade: stop waiting for the shard; later
                        // slices release without its contributions.
                        self.states[shard] = ShardState::Degraded;
                        self.frontiers[shard] = Timestamp::MAX;
                        self.panics += 1;
                        for merger in &mut self.mergers {
                            merger.mark_dead(shard);
                        }
                    }
                    None => {}
                }
            }
        }
        let wm = self
            .states
            .iter()
            .zip(&self.frontiers)
            .filter(|(state, _)| **state != ShardState::Degraded)
            .map(|(_, frontier)| *frontier)
            .min()
            .unwrap_or(Timestamp::MAX);
        for merger in &mut self.mergers {
            let stage = merger.prof_stage();
            let t0 = prof::stamp(&self.prof);
            merger.advance(wm);
            prof::record(&mut self.prof, stage, t0);
        }
    }

    /// Drains merged slices, tagged with their group index, in
    /// end-timestamp order per group.
    pub fn drain_merged(&mut self, out: &mut Vec<(usize, SealedSlice)>) {
        self.collect();
        for group in 0..self.mergers.len() {
            self.mergers[group].drain_ready(group, out);
        }
    }

    /// Ends the stream: flushes the inlet, tells every worker to exit,
    /// joins the threads, and collects their final metrics. Idempotent.
    /// Slices still pending afterwards were never covered by a watermark
    /// and stay unreleased (the sequential engine would not have sealed
    /// them everywhere either).
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.flush_inlet();
        for tx in &self.senders {
            let _ = tx.send(ShardMsg::Flush);
        }
        for handle in self.threads.drain(..) {
            // A panicked worker already reported through the guard.
            let _ = handle.join();
        }
        self.collect();
        if let Some(h) = &mut self.prof {
            h.flush();
        }
    }

    /// Test-only: makes one shard worker panic, exercising the
    /// degraded-shard path end to end.
    #[cfg(test)]
    pub(crate) fn inject_panic(&self, shard: usize) {
        if let Some(tx) = self.senders.get(shard) {
            let _ = tx.send(ShardMsg::Panic);
        }
    }

    /// Summed slicer metrics of all shards, available in full after
    /// [`ShardedSlicer::finish`] (workers report on exit). The `events`
    /// field counts per-group ingests, like [`GroupSlicer::metrics`].
    pub fn metrics(&self) -> EngineMetrics {
        self.collected.clone()
    }

    /// `(slices, suffix-cache bundles)` the unfixed mergers retain per
    /// shard for the fixed windows of mixed groups.
    pub fn retained_state(&self) -> (usize, usize) {
        let unfixed = self.mergers.iter().filter_map(|merger| match merger {
            GroupMerger::Unfixed(m) => Some((m.retained_slices(), m.cached_bundles())),
            GroupMerger::Fixed(_) => None,
        });
        unfixed.fold((0, 0), |sum, s| (sum.0 + s.0, sum.1 + s.1))
    }

    /// The registry the slicer counts into.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Publishes per-shard inlet counters, the panic count, and the
    /// shard-balance telemetry gauges (routing imbalance, inbox
    /// high-water depths, unfixed-merger retained state) into
    /// `registry` — for the slicer's own registry the inlet counters are
    /// there already. Slicers sharing a registry (the locals of one
    /// cluster run) add their counters up; the gauges keep the last
    /// publisher's level.
    pub fn publish(&self, registry: &MetricsRegistry) {
        for (shard, (events, batches)) in self.sent.iter().enumerate() {
            registry
                .counter(&names::engine_shard_events(shard))
                .raise_to(events.get());
            registry
                .counter(&names::engine_shard_batches(shard))
                .raise_to(batches.get());
            registry
                .gauge(&names::engine_shard_inbox_depth_max(shard))
                .set_max(self.inbox.depth_max(shard) as i64);
        }
        registry
            .counter(names::ENGINE_SHARD_PANICS)
            .raise_to(self.panics);
        let events = self.sent.iter().map(|(events, _)| events.get());
        let max = events.clone().max().unwrap_or(0);
        let min = events.min().unwrap_or(0);
        let imbalance = ((max - min) * 1000).checked_div(max).unwrap_or(0);
        registry
            .gauge(names::ENGINE_SHARD_IMBALANCE_PERMILLE)
            .set(imbalance as i64);
        let mut pending_sessions = 0usize;
        let mut queued_ud = 0usize;
        for merger in &self.mergers {
            if let GroupMerger::Unfixed(m) = merger {
                pending_sessions += m.pending_sessions();
                queued_ud += m.queued_ud_slices();
            }
        }
        registry
            .gauge(names::ENGINE_UNFIXED_PENDING_SESSIONS)
            .set(pending_sessions as i64);
        registry
            .gauge(names::ENGINE_UNFIXED_QUEUED_UD_SLICES)
            .set(queued_ud as i64);
        let survivors: usize = self.count_buf.iter().map(Vec::len).sum();
        registry
            .gauge(names::ENGINE_UNFIXED_COUNT_SURVIVORS)
            .set(survivors as i64);
    }
}

impl Drop for ShardedSlicer {
    fn drop(&mut self) {
        self.finish();
    }
}
