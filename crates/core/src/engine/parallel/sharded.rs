//! The sharded slicer: the inlet (reorder buffer, count filters,
//! batching), the shard worker threads, and the collector, which merges
//! each group's per-shard slices back into one deterministic slice
//! stream in the group's core [`GroupMerger`] — a shard is one more
//! source of the merger every level of the tree runs.

use std::sync::Arc;

use super::handoff::{Inbox, ShardExit};
use super::shard::{run_shard, ShardItem, ShardMsg};
use super::ParallelConfig;
use crate::engine::merge::GroupMerger;
use crate::engine::reorder::ReorderBuffer;
use crate::engine::slice::SealedSlice;
use crate::engine::slicer::GroupSlicer;
use crate::engine::QueryGroup;
use crate::error::DesisError;
use crate::event::{Event, EventBatch};
use crate::metrics::EngineMetrics;
use crate::obs::prof::{self, ProfHandle, Stage};
use crate::obs::trace::TraceCollector;
use crate::obs::{names, Counter, MetricsRegistry};
use crate::predicate::Predicate;
use crate::query::QueryId;
use crate::time::Timestamp;

/// Per-shard channel capacity in batches (bounded channels give
/// backpressure, i.e. sustainable throughput).
const CHANNEL_CAPACITY: usize = 64;

/// One count query-group's selection filter at the inlet: the union of
/// its selections' predicates, and the matches not yet taken.
#[derive(Debug)]
struct CountFilter {
    predicates: Vec<Predicate>,
    matched: Vec<(u64, Event)>,
}

impl CountFilter {
    fn new(predicates: Vec<Predicate>) -> Self {
        Self {
            predicates,
            matched: Vec::new(),
        }
    }

    fn of(group: &QueryGroup) -> Self {
        Self::new(group.selections.iter().map(|s| s.predicate).collect())
    }
}

/// What a flush releases from the reorder buffer beyond what the
/// lateness bound settles.
#[derive(Debug, Clone, Copy)]
enum Release {
    /// Nothing more.
    Settled,
    /// Everything at or below a watermark.
    Through(Timestamp),
    /// Everything: the stream ended.
    All,
}

/// Whether `group` has user-defined windows: its shards must all see
/// every marker.
fn listens_to_markers(group: &QueryGroup) -> bool {
    let mut windows = group.queries.iter().map(|cq| cq.query.window);
    windows.any(|w| w.marker_channel().is_some())
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
/// slices back into one deterministic slice stream per group.
///
/// The inlet orders the stream once, on the caller's thread: with
/// [`ParallelConfig::lateness`] set, every flushed batch passes one
/// [`ReorderBuffer`] and the shards receive what it released, in
/// timestamp order. Count query-groups are selection filters over that
/// ordered stream, evaluated once per event at the inlet
/// ([`ShardedSlicer::take_count_events`]).
///
/// This is the slicing half of [`super::ParallelEngine`], which
/// assembles windows from the merged stream.
#[derive(Debug)]
pub struct ShardedSlicer {
    senders: Vec<crossbeam_channel::Sender<ShardMsg>>,
    threads: Vec<std::thread::JoinHandle<()>>,
    inbox: Arc<Inbox<ShardItem>>,
    mergers: Vec<GroupMerger<usize>>,
    frontiers: Vec<Timestamp>,
    states: Vec<ShardState>,
    /// Arrivals not yet flushed; while flushing, what they released.
    inlet: EventBatch,
    /// Where the reorder buffer releases a flush's arrivals to: empty
    /// between flushes, kept for its capacity.
    released: Vec<Event>,
    batch_size: usize,
    /// Orders the arrivals ([`ParallelConfig::lateness`]); `None`: the
    /// input is in timestamp order already.
    reorder: Option<ReorderBuffer>,
    /// High-water level of the reorder buffer after a flush.
    buffered_max: usize,
    /// The stream's released frontier: the newest timestamp sent to the
    /// shards, or watermark — every shard's slicers may be advanced to
    /// it. `None` until the first event is flushed — slicers start with
    /// their first event.
    reached: Option<Timestamp>,
    shards: usize,
    /// Broadcast marker events to every shard (any group has
    /// user-defined windows).
    broadcast: bool,
    /// Inlet sequence number of the next released event.
    seq: u64,
    /// One filter per count query-group, by replay slot.
    counts: Vec<CountFilter>,
    panics: u64,
    /// Per-shard `(events, batches)` counters of
    /// [`ParallelConfig::registry`] (or of a private one), resolved
    /// once at spawn: the inlet's only tally of what it sent where.
    sent: Vec<(Arc<Counter>, Arc<Counter>)>,
    /// The registry's `driver` lane (ingest/barrier/merge stages).
    pub(super) prof: Option<ProfHandle>,
    collected: EngineMetrics,
    item_buf: Vec<ShardItem>,
    finished: bool,
}

impl ShardedSlicer {
    /// Spawns `cfg.shards` worker threads, each owning one slicer per
    /// group in `groups` (merged here in the group's [`GroupMerger`]),
    /// and installs one inlet selection filter per count query-group in
    /// `count_groups`: matching events come back through
    /// [`ShardedSlicer::take_count_events`].
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
            let inbox = Arc::clone(&inbox);
            let lane = registry.lane(&format!("shard{shard}"));
            let handle = std::thread::Builder::new()
                .name(format!("desis-shard-{shard}"))
                .spawn(move || run_shard(shard, shards, slicers, rx, inbox, lane))
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
        Ok(Self {
            senders,
            threads,
            inbox,
            mergers: groups.iter().map(|g| GroupMerger::new(g, shards)).collect(),
            frontiers: vec![0; shards],
            states: vec![ShardState::Running; shards],
            inlet: EventBatch::with_capacity(cfg.batch_size.max(1)),
            released: Vec::new(),
            batch_size: cfg.batch_size.max(1),
            reorder: cfg.lateness.map(ReorderBuffer::new),
            buffered_max: 0,
            reached: None,
            shards,
            broadcast: groups.iter().any(listens_to_markers),
            seq: 0,
            counts: count_groups.iter().map(CountFilter::of).collect(),
            panics: 0,
            prof: registry.lane("driver"),
            sent,
            collected: EngineMetrics::default(),
            item_buf: Vec::new(),
            finished: false,
        })
    }

    /// Shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Shard workers that panicked and were degraded.
    pub fn shard_panics(&self) -> u64 {
        self.panics
    }

    /// Events the inlet's reorder buffer dropped as too late (0 without
    /// a lateness bound).
    pub fn late_dropped(&self) -> u64 {
        self.reorder.as_ref().map_or(0, ReorderBuffer::late_dropped)
    }

    /// High-water level of the inlet's reorder buffer, sampled after
    /// every flush.
    pub(super) fn reorder_buffered_max(&self) -> usize {
        self.buffered_max
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
        self.flush_inlet(Release::Settled);
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
        self.flush_inlet(Release::Settled);
        self.broadcast |= listens_to_markers(&group);
        self.mergers.push(GroupMerger::new(&group, self.shards));
        for tx in &self.senders {
            let _ = tx.send(ShardMsg::AddGroup(group.clone()));
        }
        self.mergers.len() - 1
    }

    /// Adds a count-query replay slot at runtime: the inlet starts
    /// keeping the events matching any of `predicates`, beginning with
    /// the next ingested event (the inlet is flushed first). Returns the
    /// replay slot index.
    pub fn add_count_filter(&mut self, predicates: Vec<Predicate>) -> usize {
        self.flush_inlet(Release::Settled);
        self.counts.push(CountFilter::new(predicates));
        self.counts.len() - 1
    }

    /// Takes the matches of replay slot `replay` kept so far: every event
    /// released to the shards since the last take that matches the
    /// slot's predicates, in stream order and tagged with its inlet
    /// sequence number. The inlet releases when a batch fills, at a
    /// watermark and at [`ShardedSlicer::finish`].
    pub fn take_count_events(&mut self, replay: usize) -> Vec<(u64, Event)> {
        self.counts
            .get_mut(replay)
            .map(|filter| std::mem::take(&mut filter.matched))
            .unwrap_or_default()
    }

    /// The matches of replay slot `replay` not yet taken, to drain in
    /// place.
    pub(super) fn count_matches(&mut self, replay: usize) -> &mut Vec<(u64, Event)> {
        &mut self.counts[replay].matched
    }

    /// Ingests one event; returns `true` when the inlet batch filled and
    /// was flushed to the shards (a natural point to drain merged
    /// slices).
    #[inline]
    pub fn on_event(&mut self, ev: &Event) -> bool {
        self.inlet.push(*ev);
        if self.inlet.len() >= self.batch_size {
            self.flush_inlet(Release::Settled);
            return true;
        }
        false
    }

    /// Ingests a pre-built batch.
    pub fn on_batch(&mut self, batch: &EventBatch) {
        self.inlet.extend_from_slice(batch.as_slice());
        if self.inlet.len() >= self.batch_size {
            self.flush_inlet(Release::Settled);
        }
    }

    /// Moves the inlet's arrivals out: through the reorder buffer, if
    /// there is one, together with what `release` adds, then to the
    /// count filters and the shards.
    fn flush_inlet(&mut self, release: Release) {
        let releases = self.reorder.is_some() && !matches!(release, Release::Settled);
        if self.inlet.is_empty() && !releases {
            return;
        }
        let ingest = prof::stamp(&self.prof);
        if let Some(reorder) = &mut self.reorder {
            let t0 = prof::stamp(&self.prof);
            let released = &mut self.released;
            for ev in &self.inlet {
                reorder.push(*ev, released);
            }
            match release {
                Release::Settled => {}
                Release::Through(ts) => reorder.advance(ts, released),
                Release::All => reorder.flush(released),
            }
            self.buffered_max = self.buffered_max.max(reorder.buffered());
            // The released events become the inlet, and the arrivals'
            // buffer takes the next flush's release.
            let arrivals =
                std::mem::replace(&mut self.inlet, EventBatch::from(std::mem::take(released)));
            *released = arrivals.into_vec();
            released.clear();
            prof::record(&mut self.prof, Stage::Reorder, t0);
        }
        if let Some(last) = self.inlet.as_slice().last() {
            self.reached = self.reached.max(Some(last.ts));
            self.filter_counts();
            self.send_inlet();
        }
        prof::record(&mut self.prof, Stage::Ingest, ingest);
    }

    /// Keeps the inlet's matches of every count filter, tagged with their
    /// inlet sequence numbers.
    fn filter_counts(&mut self) {
        let first = self.seq;
        self.seq += self.inlet.len() as u64;
        for filter in &mut self.counts {
            let events = self.inlet.as_slice().iter().zip(first..);
            let matches = events.filter(|(ev, _)| filter.predicates.iter().any(|p| p.matches(ev)));
            filter.matched.extend(matches.map(|(ev, seq)| (seq, *ev)));
        }
    }

    /// Partitions the inlet by key, sends each part to its shard and
    /// empties the inlet.
    fn send_inlet(&mut self) {
        let inlet = &self.inlet;
        let parts = if self.broadcast {
            // User-defined windows close at markers, which every shard
            // must observe at the same stream position: copy marker
            // events into every part, in place.
            let share = inlet.len().div_ceil(self.shards);
            let mut parts: Vec<Vec<Event>> = (0..self.shards)
                .map(|_| Vec::with_capacity(share))
                .collect();
            for ev in inlet {
                if ev.marker.is_some() {
                    for part in &mut parts {
                        part.push(*ev);
                    }
                } else {
                    parts[ev.key as usize % self.shards].push(*ev);
                }
            }
            parts
        } else {
            inlet.partition_by_key(self.shards)
        };
        self.inlet.clear();
        for (shard, part) in parts.into_iter().enumerate() {
            if part.is_empty() {
                continue;
            }
            // Pre-resolved counters: no name formatting on this path.
            let (events, batches) = &self.sent[shard];
            events.add(part.len() as u64);
            batches.inc();
            // A failed send means the worker died; the panic surfaces
            // through the inbox guard on the next collect.
            let _ = self.senders[shard].send(ShardMsg::Batch(part));
        }
    }

    /// Flushes the inlet — releasing the reorder buffer through `ts` —
    /// and broadcasts a watermark, then **blocks** until every live shard
    /// acknowledged it — the barrier that makes results deterministic:
    /// after this returns, everything implied by the events and
    /// watermarks ingested so far is in the mergers.
    pub fn on_watermark(&mut self, ts: Timestamp) {
        self.send_watermark(ts);
        self.await_watermark(ts);
    }

    /// The non-blocking half of [`ShardedSlicer::on_watermark`]: flushes
    /// the inlet through `ts` and broadcasts the watermark.
    pub(super) fn send_watermark(&mut self, ts: Timestamp) {
        self.flush_inlet(Release::Through(ts));
        self.reached = self.reached.map(|reached| reached.max(ts));
        for tx in &self.senders {
            let _ = tx.send(ShardMsg::Watermark(ts));
        }
    }

    /// The barrier half of [`ShardedSlicer::on_watermark`]: blocks until
    /// every live shard acknowledged a watermark at `ts`.
    pub(super) fn await_watermark(&mut self, ts: Timestamp) {
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
                                merger.on_slice(shard, 1, slice);
                            }
                            prof::record(&mut self.prof, stage, t0);
                        }
                    }
                    ShardItem::Clears { group, clears } => {
                        if let Some(merger) = self.mergers.get_mut(group) {
                            merger.on_clears(shard, &clears);
                        }
                    }
                    ShardItem::Frontier(ts) => {
                        if ts > self.frontiers[shard] {
                            self.frontiers[shard] = ts;
                        }
                    }
                    ShardItem::Done(metrics) => self.collected.absorb(&metrics),
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
        for (group, merger) in self.mergers.iter_mut().enumerate() {
            out.extend(merger.take_ready().map(|slice| (group, slice)));
        }
    }

    /// Ends the stream: flushes the inlet and everything the reorder
    /// buffer still holds, tells every worker to exit, joins the threads,
    /// and collects their final metrics. Idempotent. Slices still pending
    /// afterwards were never covered by a watermark and stay unreleased
    /// (the sequential engine would not have sealed them everywhere
    /// either).
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.flush_inlet(Release::All);
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
        let retained = self.mergers.iter().map(GroupMerger::retained);
        retained.fold((0, 0), |sum, s| (sum.0 + s.0, sum.1 + s.1))
    }

    /// Publishes per-shard inlet counters, the panic count, and the
    /// shard-balance telemetry gauges (routing imbalance, inbox
    /// high-water depths, unfixed-merger retained state) into
    /// `registry` — for the slicer's own registry the inlet counters are
    /// there already.
    pub fn publish(&self, registry: &MetricsRegistry) {
        let raise = |name: &str, to: u64| registry.counter(name).raise_to(to);
        let gauge = |name: &str, level: usize| registry.gauge(name).set(level as i64);
        for (shard, (events, batches)) in self.sent.iter().enumerate() {
            raise(&names::engine_shard_events(shard), events.get());
            raise(&names::engine_shard_batches(shard), batches.get());
            let depth = registry.gauge(&names::engine_shard_inbox_depth_max(shard));
            depth.set_max(self.inbox.depth_max(shard) as i64);
        }
        raise(names::ENGINE_SHARD_PANICS, self.panics);
        let events = self.sent.iter().map(|(events, _)| events.get());
        let max = events.clone().max().unwrap_or(0);
        let min = events.min().unwrap_or(0);
        let imbalance = ((max - min) * 1000).checked_div(max).unwrap_or(0);
        gauge(names::ENGINE_SHARD_IMBALANCE_PERMILLE, imbalance as usize);
        let (mut sessions, mut queued) = (0, 0);
        for merger in &self.mergers {
            if let GroupMerger::Unfixed(m) = merger {
                sessions += m.pending_sessions();
                queued += m.queued_ud_slices();
            }
        }
        gauge(names::ENGINE_UNFIXED_PENDING_SESSIONS, sessions);
        gauge(names::ENGINE_UNFIXED_QUEUED_UD_SLICES, queued);
        let survivors = self.counts.iter().map(|c| c.matched.len()).sum();
        gauge(names::ENGINE_UNFIXED_COUNT_SURVIVORS, survivors);
    }
}

impl Drop for ShardedSlicer {
    fn drop(&mut self) {
        self.finish();
    }
}
