//! The traced run: single-thread *chain replays* of the workload through
//! each layer's public functions, a span around every call.
//!
//! Five replays, each with its own lane:
//!
//! * **sequential** — `ReorderBuffer` → one `GroupSlicer` per query-group
//!   → `Assembler`: what `AggregationEngine` composes.
//! * **sharded** — `ShardedSlicer` (real shard threads) →
//!   `FixedAssembler` / `Assembler`, count groups replayed on the
//!   collector: what `ParallelEngine` composes.
//! * **shard merge** — two simulated shards' slicers →
//!   `UnfixedShardMerger`, the merge `ShardedSlicer` runs internally for
//!   session and user-defined windows, here callable directly.
//! * **cluster** — two simulated locals' slicers → `encode_seq` → link
//!   send/recv → `decode_framed` → `AlignedSliceMerger` /
//!   `UnfixedRootMerger` / `EventMerger` → `TimeAssembler`: what
//!   `LocalWorker` and `RootWorker` compose on a `star(2)`.
//! * **nodes** — the workers themselves on a `three_tier(1, 2)`, for the
//!   inclusive per-node costs.
//!
//! The replicas of worker logic below are deliberately literal copies of
//! the control flow in `desis_net::node` built from public parts; the run
//! checks their results (and the cluster chain's wire bytes) against the
//! real thing, so a replica that drifts fails loudly.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use desis_core::aggregate::OperatorBundle;
use desis_core::engine::parallel::unfixed::UnfixedShardMerger;
use desis_core::engine::parallel::FixedAssembler;
use desis_core::engine::{
    Assembler, GroupExecution, GroupId, GroupSlicer, ParallelConfig, QueryAnalyzer, QueryGroup,
    ReorderBuffer, SealedSlice, ShardedSlicer,
};
use desis_core::event::{Event, EventBatch};
use desis_core::obs::{names, MetricsRegistry};
use desis_core::query::{sort_results, Query, QueryResult};
use desis_core::time::Timestamp;
use desis_core::window::{Measure, WindowKind};
use desis_net::cluster::ClusterConfig;
use desis_net::codec::CodecKind;
use desis_net::link::{link_with_stats, LinkReceiver, LinkSender, LinkStats};
use desis_net::merge::{AlignedSliceMerger, EventMerger, TimeAssembler, UnfixedRootMerger};
use desis_net::message::Message;
use desis_net::node::{
    analyze_for, DistributedSystem, IntermediateWorker, LocalWorker, RootWorker,
};
use desis_net::topology::{NodeId, NodeRole, Topology};

use crate::measure::SHARDS;
use crate::span::{Lane, Spans};
use crate::sys::Placement;
use crate::workload::{Workload, BATCH, LOCALS};

/// Events per span of a per-event layer.
pub const CHUNK: usize = 1024;

/// Sealed slices kept for the operator-bundle micro-replay.
const CAPTURED_SLICES: usize = 96;

/// Link queue capacity of the single-thread replays: nothing drains a
/// link while a chunk is being fed, so a chunk's frames must fit.
const LINK_CAPACITY: usize = 1 << 16;

fn chunk_watermark_due(w: &Workload, chunk_no: usize) -> bool {
    let every = (BATCH / CHUNK) as u64 * w.sizes.wm_batches;
    (chunk_no as u64 + 1).is_multiple_of(every)
}

// ---------------------------------------------------------------------
// Sequential chain.
// ---------------------------------------------------------------------

/// What the sequential chain did.
#[derive(Debug, Default)]
pub struct SeqChain {
    /// Wall time of the replay loop.
    pub wall_ns: u64,
    /// Sorted results.
    pub results: Vec<QueryResult>,
    /// Stream events fed.
    pub events: u64,
    /// Per-group ingests (`GroupSlicer::metrics().events`, summed).
    pub group_ingests: u64,
    /// Operator executions.
    pub calculations: u64,
    /// Slices sealed.
    pub slices: u64,
    /// Results the assemblers emitted.
    pub assembled: u64,
    /// Slice-partial merges the assemblers performed.
    pub merges: u64,
    /// Most slices any assembler retained.
    pub retained_max: u64,
    /// Most events the reorder buffer held.
    pub buffered_max: u64,
    /// Events the reorder buffer dropped as too late.
    pub late_dropped: u64,
    /// The query-groups, for the bundle micro-replay.
    pub query_groups: Vec<QueryGroup>,
    /// The first sealed slices, tagged with their group index.
    pub captured: Vec<(usize, SealedSlice)>,
}

struct SeqState<'a> {
    spans: &'a mut Spans,
    pipes: Vec<(GroupSlicer, Assembler)>,
    outs: Vec<Vec<SealedSlice>>,
    out: SeqChain,
}

impl SeqState<'_> {
    fn assemble(&mut self) {
        for (group, sealed) in self.outs.iter_mut().enumerate() {
            for slice in sealed.drain(..) {
                if self.out.captured.len() < CAPTURED_SLICES {
                    self.out.captured.push((group, slice.clone()));
                }
                let assembler = &mut self.pipes[group].1;
                let t = self.spans.enter("assembler", slice.id);
                assembler.on_slice(slice, &mut self.out.results);
                self.spans.exit(t);
                self.out.retained_max = self
                    .out
                    .retained_max
                    .max(assembler.retained_slices() as u64);
            }
        }
    }

    fn feed(&mut self, events: &[Event], chunk_no: u64) {
        let t = self.spans.enter("slicer", chunk_no);
        for ev in events {
            for (group, (slicer, _)) in self.pipes.iter_mut().enumerate() {
                slicer.on_event(ev, &mut self.outs[group]);
            }
        }
        self.spans.exit(t);
        self.assemble();
    }

    fn watermark(&mut self, wm: Timestamp, chunk_no: u64) {
        let t = self.spans.enter("slicer", chunk_no);
        for (group, (slicer, _)) in self.pipes.iter_mut().enumerate() {
            slicer.on_watermark(wm, &mut self.outs[group]);
        }
        self.spans.exit(t);
        self.assemble();
    }
}

/// Replays the first `events` arrivals through reorder → slicers →
/// assemblers, every window flushed at the end.
pub fn seq_chain(w: &Workload, events: u64, spans: &mut Spans) -> Result<SeqChain, String> {
    spans.set_lane(Lane::Seq);
    let groups = QueryAnalyzer::default()
        .analyze(w.queries.clone())
        .map_err(|e| e.to_string())?;
    let arrival = w.arrival_prefix(events);
    let mut reorder = w.lateness.map(ReorderBuffer::new);
    let mut state = SeqState {
        spans,
        pipes: groups
            .iter()
            .map(|g| (GroupSlicer::new(g.clone()), Assembler::new(g)))
            .collect(),
        outs: vec![Vec::new(); groups.len()],
        out: SeqChain {
            events,
            ..SeqChain::default()
        },
    };
    let mut ordered: Vec<Event> = Vec::new();
    let mut max_ts: Timestamp = 0;
    let chunks = arrival.len().div_ceil(CHUNK);
    let start = Instant::now();
    for (chunk_no, chunk) in arrival.chunks(CHUNK).enumerate() {
        max_ts = chunk.iter().fold(max_ts, |m, ev| m.max(ev.ts));
        match &mut reorder {
            Some(rb) => {
                let t = state.spans.enter("reorder", chunk_no as u64);
                for ev in chunk {
                    rb.push(*ev, &mut ordered);
                }
                state.spans.exit(t);
                state.out.buffered_max = state.out.buffered_max.max(rb.buffered() as u64);
                state.feed(&ordered, chunk_no as u64);
                ordered.clear();
            }
            None => state.feed(chunk, chunk_no as u64),
        }
        let last = chunk_no + 1 == chunks;
        if last || chunk_watermark_due(w, chunk_no) {
            let wm = if last {
                max_ts + w.flush_horizon_ms()
            } else {
                w.watermark_after(max_ts)
            };
            if let Some(rb) = &mut reorder {
                let t = state.spans.enter("reorder", chunk_no as u64);
                rb.advance(wm, &mut ordered);
                state.spans.exit(t);
                state.feed(&ordered, chunk_no as u64);
                ordered.clear();
            }
            state.watermark(wm, chunk_no as u64);
        }
    }
    let mut out = state.out;
    out.wall_ns = start.elapsed().as_nanos() as u64;
    for (slicer, assembler) in &state.pipes {
        let m = slicer.metrics();
        out.group_ingests += m.events;
        out.calculations += m.calculations;
        out.slices += m.slices;
        out.assembled += assembler.results_emitted();
        out.merges += assembler.merges();
    }
    out.late_dropped = reorder.as_ref().map_or(0, ReorderBuffer::late_dropped);
    out.query_groups = groups;
    sort_results(&mut out.results);
    Ok(out)
}

// ---------------------------------------------------------------------
// Sharded chain.
// ---------------------------------------------------------------------

/// What the sharded chain did.
#[derive(Debug, Default)]
pub struct ShardedChain {
    /// Wall time of the replay loop.
    pub wall_ns: u64,
    /// Sorted results.
    pub results: Vec<QueryResult>,
    /// Stream events fed.
    pub events: u64,
    /// Watermark barriers crossed.
    pub watermarks: u64,
    /// Merged slices handed to `FixedAssembler`s.
    pub fixed_slices: u64,
    /// Results the `FixedAssembler`s emitted.
    pub fixed_results: u64,
    /// Merges the `FixedAssembler`s performed.
    pub fixed_merges: u64,
    /// `engine.shard_imbalance_permille` after the run.
    pub imbalance_permille: i64,
    /// Events dropped as too late.
    pub late_dropped: u64,
}

enum MergedAssemblerR {
    Fixed(FixedAssembler),
    Unfixed(Assembler),
}

struct CountReplayR {
    slicer: GroupSlicer,
    assembler: Assembler,
    reorder: Option<ReorderBuffer>,
}

/// The three-way query split `ParallelEngine` makes before analysis:
/// fixed time windows, session/user-defined windows, count windows.
fn split_for_sharding(queries: Vec<Query>) -> Result<(Vec<QueryGroup>, Vec<QueryGroup>), String> {
    let (fixed, rest): (Vec<_>, Vec<_>) = queries
        .into_iter()
        .partition(|q| q.window.has_precomputable_puncts());
    let (unfixed, counts): (Vec<_>, Vec<_>) = rest.into_iter().partition(|q| {
        matches!(
            q.window.kind,
            WindowKind::Session { .. } | WindowKind::UserDefined { .. }
        )
    });
    let analyze = |qs: Vec<Query>| -> Result<Vec<QueryGroup>, String> {
        if qs.is_empty() {
            return Ok(Vec::new());
        }
        QueryAnalyzer::default()
            .analyze(qs)
            .map_err(|e| e.to_string())
    };
    let mut sharded = analyze(fixed)?;
    let mut unfixed = analyze(unfixed)?;
    let mut counts = analyze(counts)?;
    let later = unfixed.iter_mut().chain(counts.iter_mut());
    for (id, g) in (sharded.len() as GroupId..).zip(later) {
        g.id = id;
    }
    sharded.append(&mut unfixed);
    Ok((sharded, counts))
}

struct ShardedState<'a> {
    spans: &'a mut Spans,
    sharded: ShardedSlicer,
    assemblers: Vec<MergedAssemblerR>,
    replays: Vec<CountReplayR>,
    merged: Vec<(usize, SealedSlice)>,
    scratch: Vec<SealedSlice>,
    ordered: Vec<Event>,
    out: ShardedChain,
}

impl ShardedState<'_> {
    fn collect_ready(&mut self, id: u64) {
        let t = self.spans.enter("parallel.drain", id);
        self.sharded.drain_merged(&mut self.merged);
        self.spans.exit(t);
        for (group, slice) in self.merged.drain(..) {
            match &mut self.assemblers[group] {
                MergedAssemblerR::Fixed(a) => {
                    self.out.fixed_slices += 1;
                    let t = self.spans.enter("parallel.fixed_assembler", slice.id);
                    a.on_slice(slice, &mut self.out.results);
                    self.spans.exit(t);
                }
                MergedAssemblerR::Unfixed(a) => {
                    let t = self.spans.enter("assembler", slice.id);
                    a.on_slice(slice, &mut self.out.results);
                    self.spans.exit(t);
                }
            }
        }
    }

    /// `ParallelEngine::replay_counts`: the count groups' events, which
    /// the shard filters forwarded, through a collector-side pipeline.
    fn replay_counts(&mut self, wm: Option<Timestamp>, id: u64) {
        if self.replays.is_empty() {
            return;
        }
        let t = self.spans.enter("parallel.count_replay", id);
        for (idx, replay) in self.replays.iter_mut().enumerate() {
            let mut items = self.sharded.take_count_events(idx);
            items.sort_unstable_by_key(|(seq, _)| *seq);
            match &mut replay.reorder {
                Some(rb) => {
                    for (_, ev) in &items {
                        rb.push(*ev, &mut self.ordered);
                    }
                    match wm {
                        Some(ts) => rb.advance(ts, &mut self.ordered),
                        None => rb.flush(&mut self.ordered),
                    }
                }
                None => self.ordered.extend(items.iter().map(|(_, ev)| *ev)),
            }
            for ev in &self.ordered {
                replay.slicer.on_event(ev, &mut self.scratch);
                for slice in self.scratch.drain(..) {
                    replay.assembler.on_slice(slice, &mut self.out.results);
                }
            }
            self.ordered.clear();
            if let Some(ts) = wm {
                replay.slicer.on_watermark(ts, &mut self.scratch);
                for slice in self.scratch.drain(..) {
                    replay.assembler.on_slice(slice, &mut self.out.results);
                }
            }
        }
        self.spans.exit(t);
    }
}

/// Replays the first `events` arrivals through `ShardedSlicer` and the
/// collector-side assemblers, every window flushed at the end.
pub fn sharded_chain(
    w: &Workload,
    events: u64,
    spans: &mut Spans,
    placement: &Placement,
) -> Result<ShardedChain, String> {
    spans.set_lane(Lane::Sharded);
    let (sharded_groups, count_groups) = split_for_sharding(w.queries.clone())?;
    let registry = Arc::new(MetricsRegistry::new());
    let mut cfg = ParallelConfig::new(SHARDS);
    cfg.lateness = w.lateness;
    cfg.registry = Some(Arc::clone(&registry));
    let sharded = placement
        .spawn_on_others(|| ShardedSlicer::with_counts(&sharded_groups, &count_groups, &cfg))
        .map_err(|e| e.to_string())?;
    let mut state = ShardedState {
        spans,
        sharded,
        assemblers: sharded_groups
            .iter()
            .map(|g| {
                if g.has_unfixed_windows() {
                    MergedAssemblerR::Unfixed(Assembler::new(g))
                } else {
                    MergedAssemblerR::Fixed(FixedAssembler::new(g))
                }
            })
            .collect(),
        replays: count_groups
            .into_iter()
            .map(|g| CountReplayR {
                assembler: Assembler::new(&g),
                reorder: w.lateness.map(ReorderBuffer::new),
                slicer: GroupSlicer::new(g),
            })
            .collect(),
        merged: Vec::new(),
        scratch: Vec::new(),
        ordered: Vec::new(),
        out: ShardedChain {
            events,
            ..ShardedChain::default()
        },
    };
    let arrival = w.arrival_prefix(events);
    let batches = arrival.len().div_ceil(BATCH);
    let mut max_ts: Timestamp = 0;
    let mut buf: Vec<Event> = Vec::with_capacity(BATCH);
    let start = Instant::now();
    for (batch_no, chunk) in arrival.chunks(BATCH).enumerate() {
        let id = batch_no as u64;
        max_ts = chunk.iter().fold(max_ts, |m, ev| m.max(ev.ts));
        buf.clear();
        buf.extend_from_slice(chunk);
        let batch = EventBatch::from(std::mem::take(&mut buf));
        let t = state.spans.enter("parallel.inlet", id);
        state.sharded.on_batch(&batch);
        state.spans.exit(t);
        buf = batch.into_vec();
        state.collect_ready(id);
        let last = batch_no + 1 == batches;
        if last || (id + 1).is_multiple_of(w.sizes.wm_batches) {
            let wm = if last {
                max_ts + w.flush_horizon_ms()
            } else {
                w.watermark_after(max_ts)
            };
            state.out.watermarks += 1;
            let t = state.spans.enter("parallel.barrier", id);
            state.sharded.on_watermark(wm);
            state.spans.exit(t);
            state.replay_counts(Some(wm), id);
            state.collect_ready(id);
        }
    }
    let t = state.spans.enter("parallel.finish", batches as u64);
    state.sharded.finish();
    state.spans.exit(t);
    state.replay_counts(None, batches as u64);
    state.collect_ready(batches as u64);
    let mut out = state.out;
    out.wall_ns = start.elapsed().as_nanos() as u64;
    for assembler in &state.assemblers {
        if let MergedAssemblerR::Fixed(a) = assembler {
            out.fixed_results += a.results_emitted();
            out.fixed_merges += a.merges();
        }
    }
    state.sharded.publish(&registry);
    out.imbalance_permille = registry.gauge(names::ENGINE_SHARD_IMBALANCE_PERMILLE).get();
    out.late_dropped = state.sharded.late_dropped()
        + state
            .replays
            .iter()
            .filter_map(|r| r.reorder.as_ref())
            .map(ReorderBuffer::late_dropped)
            .sum::<u64>();
    if state.sharded.shard_panics() > 0 {
        return Err("a shard worker panicked during the sharded chain".into());
    }
    sort_results(&mut out.results);
    Ok(out)
}

// ---------------------------------------------------------------------
// Simulated cross-shard unfixed merge.
// ---------------------------------------------------------------------

/// What the shard-merge chain did.
#[derive(Debug, Default)]
pub struct ShardMergeChain {
    /// Wall time of the replay loop.
    pub wall_ns: u64,
    /// Sorted results of the session and user-defined queries.
    pub results: Vec<QueryResult>,
    /// Per-shard slices folded into the mergers.
    pub slices: u64,
}

/// Runs the session/user-defined query-groups the way two shard workers
/// and the collector do — per-shard slicers over key-partitioned events
/// with markers broadcast, `UnfixedShardMerger` recombining them — on
/// one thread, so the merger's calls can be timed. No such groups: an
/// empty outcome.
pub fn shard_merge_chain(
    w: &Workload,
    events: u64,
    spans: &mut Spans,
) -> Result<ShardMergeChain, String> {
    spans.set_lane(Lane::ShardMerge);
    let (groups, _) = split_for_sharding(w.queries.clone())?;
    let groups: Vec<QueryGroup> = groups
        .into_iter()
        .filter(QueryGroup::has_unfixed_windows)
        .collect();
    let mut out = ShardMergeChain::default();
    if groups.is_empty() {
        return Ok(out);
    }
    let ordered = w.ordered_prefix(events);
    let mut slicers: Vec<Vec<GroupSlicer>> = (0..SHARDS)
        .map(|_| groups.iter().map(|g| GroupSlicer::new(g.clone())).collect())
        .collect();
    let mut mergers: Vec<UnfixedShardMerger> = groups
        .iter()
        .map(|g| UnfixedShardMerger::new(g, SHARDS))
        .collect();
    let mut assemblers: Vec<Assembler> = groups.iter().map(Assembler::new).collect();
    let mut sealed: Vec<SealedSlice> = Vec::new();
    let mut ready: Vec<(usize, SealedSlice)> = Vec::new();
    let chunks = ordered.len().div_ceil(CHUNK);
    let start = Instant::now();
    for (chunk_no, chunk) in ordered.chunks(CHUNK).enumerate() {
        let id = chunk_no as u64;
        for (shard, shard_slicers) in slicers.iter_mut().enumerate() {
            for (group, slicer) in shard_slicers.iter_mut().enumerate() {
                let t = spans.enter("slicer", id);
                for ev in chunk {
                    let owned = ev.key as usize % SHARDS == shard;
                    if owned {
                        slicer.on_event(ev, &mut sealed);
                    } else if ev.marker.is_some() {
                        slicer.on_marker(ev, &mut sealed);
                    }
                }
                spans.exit(t);
                out.slices += sealed.len() as u64;
                let t = spans.enter("parallel.unfixed_merge", id);
                for slice in sealed.drain(..) {
                    mergers[group].on_slice(shard, slice);
                }
                spans.exit(t);
            }
        }
        let last = chunk_no + 1 == chunks;
        if last || chunk_watermark_due(w, chunk_no) {
            let last_ts = chunk.last().map_or(0, |ev| ev.ts);
            let wm = if last {
                last_ts + w.flush_horizon_ms()
            } else {
                last_ts
            };
            for (shard, shard_slicers) in slicers.iter_mut().enumerate() {
                for (group, slicer) in shard_slicers.iter_mut().enumerate() {
                    let t = spans.enter("slicer", id);
                    slicer.on_watermark(wm, &mut sealed);
                    let floor = if last { Timestamp::MAX } else { wm };
                    let clears = slicer.unfixed_clears(floor);
                    spans.exit(t);
                    out.slices += sealed.len() as u64;
                    let t = spans.enter("parallel.unfixed_merge", id);
                    for slice in sealed.drain(..) {
                        mergers[group].on_slice(shard, slice);
                    }
                    mergers[group].on_clears(shard, &clears);
                    spans.exit(t);
                }
            }
            for (group, merger) in mergers.iter_mut().enumerate() {
                let t = spans.enter("parallel.unfixed_merge", id);
                merger.advance(wm);
                merger.drain_ready(group, &mut ready);
                spans.exit(t);
            }
        }
        for (group, slice) in ready.drain(..) {
            let t = spans.enter("assembler", slice.id);
            assemblers[group].on_slice(slice, &mut out.results);
            spans.exit(t);
        }
    }
    out.wall_ns = start.elapsed().as_nanos() as u64;
    sort_results(&mut out.results);
    Ok(out)
}

// ---------------------------------------------------------------------
// Cluster chain: replicas of LocalWorker and RootWorker from public parts.
// ---------------------------------------------------------------------

/// `ClusterConfig::effective_flush_horizon` for a script-free run.
fn cluster_flush_horizon(cfg: &ClusterConfig) -> u64 {
    let mut horizon = cfg.watermark_every;
    for q in &cfg.queries {
        let h = match q.window.kind {
            WindowKind::Tumbling { length } | WindowKind::Sliding { length, .. } => {
                match q.window.measure {
                    Measure::Time => length,
                    Measure::Count => 0,
                }
            }
            WindowKind::Session { gap } => gap,
            WindowKind::UserDefined { .. } => 0,
        };
        horizon = horizon.max(h + 1);
    }
    horizon + cfg.watermark_every
}

enum LocalGroupR {
    /// Slice locally; the flag says whether window ends ship with slices.
    Slice(Box<GroupSlicer>, bool),
    /// Only the root can process the group: the raw stream ships.
    Raw,
}

/// `LocalWorker` for the Desis system, producing messages instead of
/// sending them.
struct LocalR {
    id: NodeId,
    groups: Vec<LocalGroupR>,
    batch: Vec<Event>,
    needs_raw: bool,
    batch_size: usize,
    watermark_every: u64,
    next_watermark: Timestamp,
    last_ts: Timestamp,
    scratch: Vec<SealedSlice>,
}

impl LocalR {
    fn new(id: NodeId, groups: &[QueryGroup], cfg: &ClusterConfig) -> Self {
        let groups: Vec<LocalGroupR> = groups
            .iter()
            .map(|g| match g.execution {
                GroupExecution::RootRaw => LocalGroupR::Raw,
                _ => LocalGroupR::Slice(
                    Box::new(GroupSlicer::new(g.clone())),
                    g.has_unfixed_windows(),
                ),
            })
            .collect();
        Self {
            id,
            needs_raw: groups.iter().any(|g| matches!(g, LocalGroupR::Raw)),
            groups,
            batch: Vec::with_capacity(cfg.batch_size),
            batch_size: cfg.batch_size,
            watermark_every: cfg.watermark_every,
            next_watermark: cfg.watermark_every,
            last_ts: 0,
            scratch: Vec::new(),
        }
    }

    fn flush_slices(&mut self, group: GroupId, ship_ends: bool, out: &mut Vec<Message>) {
        for mut partial in self.scratch.drain(..) {
            if !ship_ends {
                partial.ends.clear();
            }
            out.push(Message::Slice {
                group,
                origin: self.id,
                coverage: 1,
                partial,
            });
        }
    }

    fn on_event(&mut self, ev: &Event, out: &mut Vec<Message>) {
        self.last_ts = ev.ts;
        for idx in 0..self.groups.len() {
            if let LocalGroupR::Slice(slicer, ship_ends) = &mut self.groups[idx] {
                slicer.on_event(ev, &mut self.scratch);
                let (gid, ship_ends) = (slicer.group().id, *ship_ends);
                self.flush_slices(gid, ship_ends, out);
            }
        }
        if self.needs_raw {
            self.batch.push(*ev);
            if self.batch.len() >= self.batch_size {
                out.push(Message::Events(std::mem::take(&mut self.batch)));
            }
        }
        if ev.ts >= self.next_watermark {
            self.next_watermark = (ev.ts / self.watermark_every + 1) * self.watermark_every;
            self.send_watermark(ev.ts, out);
        }
    }

    fn send_watermark(&mut self, ts: Timestamp, out: &mut Vec<Message>) {
        for idx in 0..self.groups.len() {
            if let LocalGroupR::Slice(slicer, ship_ends) = &mut self.groups[idx] {
                slicer.on_watermark(ts, &mut self.scratch);
                let (gid, ship_ends) = (slicer.group().id, *ship_ends);
                self.flush_slices(gid, ship_ends, out);
            }
        }
        if self.needs_raw && !self.batch.is_empty() {
            out.push(Message::Events(std::mem::take(&mut self.batch)));
        }
        out.push(Message::Watermark(ts));
    }

    fn finish(&mut self, horizon: u64, out: &mut Vec<Message>) {
        self.send_watermark(self.last_ts + horizon, out);
        out.push(Message::Flush);
    }
}

/// `ChildClock` of `desis_net::node`: the minimum watermark over live
/// children, or the maximum final watermark once all have flushed.
struct ChildClockR {
    children: Vec<NodeId>,
    watermarks: BTreeMap<NodeId, Timestamp>,
    flushed: Vec<NodeId>,
}

impl ChildClockR {
    fn all_flushed(&self) -> bool {
        self.children.iter().all(|c| self.flushed.contains(c))
    }

    fn effective(&self) -> Timestamp {
        let mut min_live = Timestamp::MAX;
        let mut max_final = 0;
        for c in &self.children {
            let wm = self.watermarks.get(c).copied().unwrap_or(0);
            max_final = max_final.max(wm);
            if !self.flushed.contains(c) {
                min_live = min_live.min(wm);
            }
        }
        if self.all_flushed() {
            max_final
        } else {
            min_live
        }
    }
}

enum RootGroupR {
    Aligned(AlignedSliceMerger, TimeAssembler),
    Unfixed(UnfixedRootMerger),
    Raw(Box<GroupSlicer>, Box<Assembler>),
}

/// `RootWorker` for the Desis system, a span around every layer call.
struct RootR {
    groups: BTreeMap<GroupId, RootGroupR>,
    event_merger: Option<EventMerger>,
    clock: ChildClockR,
    applied_watermark: Timestamp,
    flush_done: bool,
    raw_scratch: Vec<Event>,
    slice_scratch: Vec<SealedSlice>,
    merged_scratch: Vec<SealedSlice>,
    results: Vec<QueryResult>,
    counts: RootCounts,
}

/// Units the root-side layers worked on.
#[derive(Debug, Default, Clone, Copy)]
pub struct RootCounts {
    /// Child slices folded into `AlignedSliceMerger`s.
    pub aligned_slices: u64,
    /// Merged slices handed to `TimeAssembler`s.
    pub time_assembler_slices: u64,
    /// Results the `TimeAssembler`s emitted.
    pub time_assembler_results: u64,
    /// Most slices any `TimeAssembler` retained.
    pub time_assembler_retained_max: u64,
    /// Child slices folded into `UnfixedRootMerger`s.
    pub unfixed_slices: u64,
    /// Raw events through the `EventMerger`.
    pub raw_events: u64,
}

impl RootR {
    fn new(groups: &[QueryGroup], children: Vec<NodeId>, n_leaves: usize) -> Self {
        let mut any_raw = false;
        let mut map = BTreeMap::new();
        for g in groups {
            let mode = if g.execution == GroupExecution::RootRaw {
                any_raw = true;
                RootGroupR::Raw(
                    Box::new(GroupSlicer::new(g.clone())),
                    Box::new(Assembler::new(g)),
                )
            } else if g.has_unfixed_windows() {
                RootGroupR::Unfixed(UnfixedRootMerger::new(g, n_leaves))
            } else {
                RootGroupR::Aligned(
                    AlignedSliceMerger::new(n_leaves as u32),
                    TimeAssembler::new(g),
                )
            };
            map.insert(g.id, mode);
        }
        Self {
            groups: map,
            event_merger: any_raw.then(|| EventMerger::new(children.len())),
            clock: ChildClockR {
                children,
                watermarks: BTreeMap::new(),
                flushed: Vec::new(),
            },
            applied_watermark: 0,
            flush_done: false,
            raw_scratch: Vec::new(),
            slice_scratch: Vec::new(),
            merged_scratch: Vec::new(),
            results: Vec::new(),
            counts: RootCounts::default(),
        }
    }

    fn assemble_merged(
        merged: &mut Vec<SealedSlice>,
        assembler: &mut TimeAssembler,
        results: &mut Vec<QueryResult>,
        counts: &mut RootCounts,
        spans: &mut Spans,
    ) {
        for slice in merged.drain(..) {
            counts.time_assembler_slices += 1;
            let t = spans.enter("merge.time_assembler", slice.id);
            assembler.on_slice(slice, results);
            spans.exit(t);
            counts.time_assembler_retained_max = counts
                .time_assembler_retained_max
                .max(assembler.retained_slices() as u64);
        }
    }

    fn on_message(&mut self, child: NodeId, msg: Message, spans: &mut Spans, id: u64) {
        match msg {
            Message::Events(events) => {
                if let Some(merger) = &mut self.event_merger {
                    self.counts.raw_events += events.len() as u64;
                    let t = spans.enter("merge.event_merger", id);
                    merger.on_events(child, events);
                    spans.exit(t);
                    self.pump_raw(spans, id);
                }
            }
            Message::Slice {
                group,
                origin,
                coverage,
                partial,
            } => match self.groups.get_mut(&group) {
                Some(RootGroupR::Aligned(merger, assembler)) => {
                    self.counts.aligned_slices += 1;
                    let t = spans.enter("merge.aligned", id);
                    merger.on_slice(partial, coverage);
                    merger.drain_ready(&mut self.merged_scratch);
                    spans.exit(t);
                    Self::assemble_merged(
                        &mut self.merged_scratch,
                        assembler,
                        &mut self.results,
                        &mut self.counts,
                        spans,
                    );
                }
                Some(RootGroupR::Unfixed(merger)) => {
                    self.counts.unfixed_slices += 1;
                    let t = spans.enter("merge.unfixed", id);
                    merger.on_slice(origin, partial, &mut self.results);
                    spans.exit(t);
                }
                Some(RootGroupR::Raw(..)) | None => {}
            },
            Message::WindowPartials { .. } => {}
            Message::Watermark(ts) => {
                let wm = self.clock.watermarks.entry(child).or_insert(0);
                *wm = (*wm).max(ts);
                if let Some(merger) = &mut self.event_merger {
                    merger.on_watermark(child, ts);
                    self.pump_raw(spans, id);
                }
                self.advance(spans, id);
            }
            Message::Flush => {
                self.clock.flushed.push(child);
                if let Some(merger) = &mut self.event_merger {
                    merger.on_flush(child);
                    self.pump_raw(spans, id);
                }
                self.advance(spans, id);
            }
        }
    }

    fn advance(&mut self, spans: &mut Spans, id: u64) {
        let effective = self.clock.effective();
        let flushing = self.clock.all_flushed() && !self.flush_done;
        if effective <= self.applied_watermark && !flushing {
            return;
        }
        self.applied_watermark = self.applied_watermark.max(effective);
        if flushing {
            self.flush_done = true;
        }
        for group in self.groups.values_mut() {
            match group {
                RootGroupR::Aligned(merger, assembler) => {
                    let t = spans.enter("merge.aligned", id);
                    merger.advance_watermark(effective);
                    merger.drain_ready(&mut self.merged_scratch);
                    spans.exit(t);
                    Self::assemble_merged(
                        &mut self.merged_scratch,
                        assembler,
                        &mut self.results,
                        &mut self.counts,
                        spans,
                    );
                }
                RootGroupR::Raw(slicer, assembler) => {
                    let t = spans.enter("slicer", id);
                    slicer.on_watermark(effective, &mut self.slice_scratch);
                    spans.exit(t);
                    for slice in self.slice_scratch.drain(..) {
                        let t = spans.enter("assembler", slice.id);
                        assembler.on_slice(slice, &mut self.results);
                        spans.exit(t);
                    }
                }
                RootGroupR::Unfixed(merger) => {
                    let t = spans.enter("merge.unfixed", id);
                    merger.on_watermark(effective, &mut self.results);
                    if flushing {
                        merger.flush(&mut self.results);
                    }
                    spans.exit(t);
                }
            }
        }
    }

    fn pump_raw(&mut self, spans: &mut Spans, id: u64) {
        let Some(merger) = &mut self.event_merger else {
            return;
        };
        let t = spans.enter("merge.event_merger", id);
        merger.drain_ready(&mut self.raw_scratch);
        spans.exit(t);
        if self.raw_scratch.is_empty() {
            return;
        }
        for group in self.groups.values_mut() {
            if let RootGroupR::Raw(slicer, assembler) = group {
                let t = spans.enter("slicer", id);
                for ev in &self.raw_scratch {
                    slicer.on_event(ev, &mut self.slice_scratch);
                }
                spans.exit(t);
                for slice in self.slice_scratch.drain(..) {
                    let t = spans.enter("assembler", slice.id);
                    assembler.on_slice(slice, &mut self.results);
                    spans.exit(t);
                }
            }
        }
        self.raw_scratch.clear();
    }
}

/// What the cluster chain did.
#[derive(Debug, Default)]
pub struct ClusterChain {
    /// Wall time of the replay loop.
    pub wall_ns: u64,
    /// Sorted results.
    pub results: Vec<QueryResult>,
    /// Frames over both links.
    pub frames: u64,
    /// Bytes over both links, as the links counted them.
    pub bytes: u64,
    /// Root-side unit counts.
    pub root: RootCounts,
}

struct ChainLink {
    tx: LinkSender,
    rx: LinkReceiver,
    stats: Arc<LinkStats>,
    seq: u64,
}

/// Replays timestamp-ordered `feeds` (one per local) through the
/// `star(2)` chain of public layer functions.
pub fn cluster_chain(
    w: &Workload,
    feeds: &[Vec<Event>],
    spans: &mut Spans,
) -> Result<ClusterChain, String> {
    spans.set_lane(Lane::Cluster);
    let topology = Topology::star(LOCALS);
    let cfg = ClusterConfig::new(
        DistributedSystem::Desis,
        w.queries.clone(),
        topology.clone(),
    );
    let horizon = cluster_flush_horizon(&cfg);
    let groups =
        analyze_for(DistributedSystem::Desis, w.queries.clone()).map_err(|e| e.to_string())?;
    let local_ids = topology.nodes_with_role(NodeRole::Local);
    let codec = CodecKind::Binary;
    let mut locals: Vec<LocalR> = local_ids
        .iter()
        .map(|id| LocalR::new(*id, &groups, &cfg))
        .collect();
    let mut links: Vec<ChainLink> = local_ids
        .iter()
        .map(|_| {
            let (tx, rx, stats) =
                link_with_stats(codec, LINK_CAPACITY, None, Arc::new(LinkStats::new()));
            ChainLink {
                tx,
                rx,
                stats,
                seq: 0,
            }
        })
        .collect();
    let mut root = RootR::new(&groups, local_ids.clone(), local_ids.len());
    let mut out = ClusterChain::default();
    let mut msgs: Vec<Message> = Vec::new();
    let mut frame_no = 0u64;
    let chunks = feeds
        .iter()
        .map(|f| f.len().div_ceil(CHUNK))
        .max()
        .unwrap_or(0);
    let start = Instant::now();
    // One extra pass finishes the locals.
    for chunk_no in 0..=chunks {
        for (local, feed) in feeds.iter().enumerate() {
            let t = spans.enter("slicer", chunk_no as u64);
            if chunk_no == chunks {
                locals[local].finish(horizon, &mut msgs);
            } else {
                let from = (chunk_no * CHUNK).min(feed.len());
                let to = ((chunk_no + 1) * CHUNK).min(feed.len());
                for ev in &feed[from..to] {
                    locals[local].on_event(ev, &mut msgs);
                }
            }
            spans.exit(t);
            let link = &mut links[local];
            for msg in msgs.drain(..) {
                // The link first: its send encodes and its recv decodes,
                // so the separately timed codec calls below run warm, as
                // they do inside a busy link.
                let t = spans.enter("link", frame_no);
                let sent = link.tx.send(&msg);
                let received = link.rx.recv();
                spans.exit(t);
                if !sent || !matches!(received, Some(Ok(_))) {
                    return Err("chain link lost a frame".into());
                }
                black_box(received);
                let t = spans.enter("codec.encode", frame_no);
                let frame = codec.encode_seq(&msg, link.seq);
                spans.exit(t);
                link.seq += 1;
                let t = spans.enter("codec.decode", frame_no);
                let decoded = codec.decode_framed(&frame);
                spans.exit(t);
                let decoded = decoded.map_err(|e| e.to_string())?;
                root.on_message(local_ids[local], decoded.msg, spans, frame_no);
                frame_no += 1;
            }
        }
    }
    out.wall_ns = start.elapsed().as_nanos() as u64;
    out.frames = frame_no;
    out.bytes = links.iter().map(|l| l.stats.bytes()).sum();
    out.root = root.counts;
    for group in root.groups.values() {
        if let RootGroupR::Aligned(_, assembler) = group {
            out.root.time_assembler_results += assembler.results_emitted();
        }
    }
    out.results = root.results;
    sort_results(&mut out.results);
    Ok(out)
}

// ---------------------------------------------------------------------
// Node-level replay.
// ---------------------------------------------------------------------

/// What the worker-level replay did.
#[derive(Debug, Default)]
pub struct NodesChain {
    /// Wall time of the replay loop.
    pub wall_ns: u64,
    /// Sorted results.
    pub results: Vec<QueryResult>,
    /// Events fed to the locals.
    pub events: u64,
    /// Messages the intermediate handled.
    pub intermediate_messages: u64,
    /// Messages the root handled.
    pub root_messages: u64,
}

/// Replays `feeds` through `LocalWorker` ×2 → `IntermediateWorker` →
/// `RootWorker` on one thread, a span around every worker call.
pub fn nodes_chain(
    w: &Workload,
    feeds: &[Vec<Event>],
    spans: &mut Spans,
) -> Result<NodesChain, String> {
    spans.set_lane(Lane::Nodes);
    let system = DistributedSystem::Desis;
    let topology = Topology::three_tier(1, LOCALS);
    let cfg = ClusterConfig::new(system, w.queries.clone(), topology.clone());
    let horizon = cluster_flush_horizon(&cfg);
    let groups = analyze_for(system, w.queries.clone()).map_err(|e| e.to_string())?;
    let local_ids = topology.nodes_with_role(NodeRole::Local);
    let inter_id = topology.nodes_with_role(NodeRole::Intermediate)[0];
    let codec = CodecKind::Binary;
    let new_link = || link_with_stats(codec, LINK_CAPACITY, None, Arc::new(LinkStats::new()));
    let mut locals: Vec<(LocalWorker, LinkSender, LinkReceiver, Arc<LinkStats>, u64)> = local_ids
        .iter()
        .map(|id| {
            let (tx, rx, stats) = new_link();
            let worker =
                LocalWorker::new(*id, system, &groups, cfg.batch_size, cfg.watermark_every);
            (worker, tx, rx, stats, 0)
        })
        .collect();
    let (mut inter_tx, inter_rx, inter_stats) = new_link();
    let mut inter_received = 0u64;
    let mut inter = IntermediateWorker::new(
        inter_id,
        system,
        &groups,
        local_ids.len() as u32,
        local_ids.clone(),
    );
    let mut root = RootWorker::new(system, &groups, &w.queries, local_ids.len(), vec![inter_id])
        .map_err(|e| e.to_string())?;
    let mut out = NodesChain {
        events: feeds.iter().map(|f| f.len() as u64).sum(),
        ..NodesChain::default()
    };
    let chunks = feeds
        .iter()
        .map(|f| f.len().div_ceil(CHUNK))
        .max()
        .unwrap_or(0);
    let start = Instant::now();
    for chunk_no in 0..=chunks {
        let id = chunk_no as u64;
        for (local, feed) in feeds.iter().enumerate() {
            let (worker, tx, rx, stats, received) = &mut locals[local];
            let t = spans.enter("node.local", id);
            let ok = if chunk_no == chunks {
                worker.finish(horizon, tx)
            } else {
                let from = (chunk_no * CHUNK).min(feed.len());
                let to = ((chunk_no + 1) * CHUNK).min(feed.len());
                feed[from..to].iter().all(|ev| worker.on_event(ev, tx))
            };
            spans.exit(t);
            if !ok {
                return Err("a local worker's uplink closed".into());
            }
            while *received < stats.messages() {
                let t = spans.enter("link", *received);
                let msg = rx.recv();
                spans.exit(t);
                *received += 1;
                let Some(Ok(msg)) = msg else {
                    return Err("a local uplink lost a frame".into());
                };
                out.intermediate_messages += 1;
                let t = spans.enter("node.intermediate", out.intermediate_messages);
                let ok = inter.on_message(local_ids[local], msg, &mut inter_tx);
                spans.exit(t);
                if !ok {
                    return Err("the intermediate worker's uplink closed".into());
                }
                while inter_received < inter_stats.messages() {
                    let t = spans.enter("link", inter_received);
                    let msg = inter_rx.recv();
                    spans.exit(t);
                    inter_received += 1;
                    let Some(Ok(msg)) = msg else {
                        return Err("the intermediate uplink lost a frame".into());
                    };
                    out.root_messages += 1;
                    let t = spans.enter("node.root", out.root_messages);
                    root.on_message(inter_id, msg);
                    spans.exit(t);
                    out.results.append(&mut root.drain_results());
                }
            }
        }
    }
    out.wall_ns = start.elapsed().as_nanos() as u64;
    sort_results(&mut out.results);
    Ok(out)
}

// ---------------------------------------------------------------------
// Operator-bundle micro-replay and analyzer probe.
// ---------------------------------------------------------------------

/// Units of the bundle micro-replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct AggregateCounts {
    /// Values folded by `update`.
    pub updates: u64,
    /// Bundles sealed.
    pub seals: u64,
    /// Bundle-into-bundle merges.
    pub merges: u64,
    /// Function values finalized.
    pub finalizes: u64,
}

/// Times `OperatorBundle::update/seal/merge/finalize` on the operator
/// sets, keys and sealed bundles the sequential chain produced.
pub fn aggregate_micro(chain: &SeqChain, values: &[Event], spans: &mut Spans) -> AggregateCounts {
    spans.set_lane(Lane::Aggregate);
    let mut counts = AggregateCounts::default();
    for (g, group) in chain.query_groups.iter().enumerate() {
        for (s, selection) in group.selections.iter().enumerate() {
            let id = (g * 64 + s) as u64;
            // update + seal: per-key bundles, as one slice would hold them.
            let mut keyed: BTreeMap<u32, OperatorBundle> = BTreeMap::new();
            let matching: Vec<&Event> = values
                .iter()
                .filter(|ev| selection.predicate.matches(ev))
                .collect();
            let t = spans.enter("aggregate.update", id);
            for ev in &matching {
                keyed
                    .entry(ev.key)
                    .or_insert_with(|| OperatorBundle::new(selection.operators))
                    .update(ev.value);
            }
            spans.exit(t);
            counts.updates += matching.len() as u64;
            let t = spans.enter("aggregate.seal", id);
            for bundle in keyed.values_mut() {
                bundle.seal();
            }
            spans.exit(t);
            counts.seals += keyed.len() as u64;
            black_box(&keyed);
        }
        // merge + finalize: the captured sealed slices of this group.
        let mut captured = chain
            .captured
            .iter()
            .filter(|(group_idx, _)| *group_idx == g)
            .map(|(_, slice)| slice);
        let Some(first) = captured.next() else {
            continue;
        };
        let mut acc = first.data.clone();
        for slice in captured {
            for (sel, theirs) in slice.data.per_selection.iter().enumerate() {
                let mine = &mut acc.per_selection[sel];
                let t = spans.enter("aggregate.merge", slice.id);
                for (key, bundle) in theirs {
                    if let Some(existing) = mine.get_mut(key) {
                        existing.merge(bundle);
                        counts.merges += 1;
                    }
                }
                spans.exit(t);
                for (key, bundle) in theirs {
                    mine.entry(*key).or_insert_with(|| bundle.clone());
                }
            }
        }
        for cq in &group.queries {
            let bundles = &acc.per_selection[cq.selection as usize];
            let t = spans.enter("aggregate.finalize", cq.query.id);
            for bundle in bundles.values() {
                for function in &cq.query.functions {
                    black_box(bundle.finalize(function));
                    counts.finalizes += 1;
                }
            }
            spans.exit(t);
        }
    }
    counts
}

/// Times `QueryAnalyzer::analyze` over the workload's queries `repeats`
/// times; returns the number of query-groups.
pub fn analyzer_probe(w: &Workload, repeats: usize, spans: &mut Spans) -> Result<usize, String> {
    spans.set_lane(Lane::Setup);
    let mut groups = 0;
    for repeat in 0..repeats {
        let queries = w.queries.clone();
        let t = spans.enter("analyzer", repeat as u64);
        let analyzed = QueryAnalyzer::default().analyze(queries);
        spans.exit(t);
        groups = analyzed.map_err(|e| e.to_string())?.len();
    }
    Ok(groups)
}
