//! One sample of each end-to-end metric, measured strictly from outside:
//! every function here builds what it needs untimed, then times calls
//! into public functions of `desis-core` / `desis-net`.

use std::hint::black_box;
use std::time::Instant;

use desis_core::engine::{
    AggregationEngine, ParallelConfig, ParallelEngine, QueryAnalyzer, ReorderBuffer,
};
use desis_core::event::{Event, EventBatch};
use desis_core::obs::names;
use desis_core::query::QueryResult;
use desis_core::time::Timestamp;
use desis_net::cluster::{run_cluster, ClusterConfig, ClusterReport};
use desis_net::node::DistributedSystem;
use desis_net::topology::Topology;

use crate::sys::{process_cpu_ns, Placement};
use crate::workload::{Workload, BATCH};

/// Shards of the parallel engine in every sharded sample.
pub const SHARDS: usize = 2;

/// What an engine sample did, for the identical-counts check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineCounts {
    /// Events offered.
    pub events: u64,
    /// Results drained.
    pub results: u64,
    /// Events dropped as later than the lateness bound (must be 0).
    pub late_dropped: u64,
}

/// How a run over a finite number of events ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    /// Timed samples: the last watermark is the ordinary one, windows
    /// still open stay open.
    Cut,
    /// Checked runs: one far watermark fires everything still open, so
    /// the results are complete and comparable across systems.
    Flush,
}

/// Last watermark of a run of `events` events whose highest timestamp
/// was `max_ts`. A disordered stream is cut at a lap boundary, where
/// everything before the boundary has arrived.
fn final_watermark(w: &Workload, events: u64, max_ts: Timestamp, tail: Tail) -> Timestamp {
    match (tail, w.lateness) {
        (Tail::Flush, _) => max_ts + w.flush_horizon_ms(),
        (Tail::Cut, Some(_)) => (events / w.lap.len() as u64 * w.lap_span_ms).saturating_sub(1),
        (Tail::Cut, None) => max_ts,
    }
}

/// One step of a feed loop.
enum Step<'a> {
    /// The next batch of events; the callee may take the allocation as
    /// long as it hands one back.
    Batch(&'a mut Vec<Event>),
    /// A watermark is due; `last` after the final batch.
    Watermark { wm: Timestamp, last: bool },
}

/// Feeds `events` events in batches of [`BATCH`], with a watermark step
/// at the workload's cadence and after the last batch. Returns the
/// elapsed seconds.
fn drive(w: &Workload, events: u64, tail: Tail, mut step: impl FnMut(Step<'_>)) -> f64 {
    let mut buf: Vec<Event> = Vec::with_capacity(BATCH);
    let mut fed = 0u64;
    let mut batches = 0u64;
    let mut max_ts: Timestamp = 0;
    let start = Instant::now();
    while fed < events {
        let to = (fed + BATCH as u64).min(events);
        buf.clear();
        w.fill(fed, to, &mut buf);
        max_ts = buf.iter().fold(max_ts, |m, ev| m.max(ev.ts));
        step(Step::Batch(&mut buf));
        fed = to;
        batches += 1;
        if fed == events {
            let wm = final_watermark(w, events, max_ts, tail);
            step(Step::Watermark { wm, last: true });
        } else if batches.is_multiple_of(w.sizes.wm_batches) {
            let wm = w.watermark_after(max_ts);
            step(Step::Watermark { wm, last: false });
        }
    }
    start.elapsed().as_secs_f64()
}

/// Where drained results go: counted always, kept when a sink is given.
struct Drain<'a> {
    results: u64,
    sink: Option<&'a mut Vec<QueryResult>>,
}

impl Drain<'_> {
    fn take(&mut self, drained: Vec<QueryResult>) {
        self.results += drained.len() as u64;
        match self.sink.as_deref_mut() {
            Some(sink) => sink.extend(drained),
            None => {
                black_box(drained);
            }
        }
    }
}

/// The sequential engine over `events` events, results collected into
/// `sink` when given. Closed loop: `on_event` per event (behind a
/// `ReorderBuffer` when the stream is disordered), `on_watermark` +
/// `drain_results` at the workload's cadence.
pub fn run_seq(
    w: &Workload,
    events: u64,
    tail: Tail,
    sink: Option<&mut Vec<QueryResult>>,
) -> Result<(f64, EngineCounts), String> {
    let mut engine = AggregationEngine::new(w.queries.clone()).map_err(|e| e.to_string())?;
    let mut reorder = w.lateness.map(ReorderBuffer::new);
    let mut ordered: Vec<Event> = Vec::new();
    let mut drain = Drain { results: 0, sink };
    let secs = drive(w, events, tail, |step| match step {
        Step::Batch(batch) => match &mut reorder {
            None => {
                for ev in batch.iter() {
                    engine.on_event(ev);
                }
            }
            Some(rb) => {
                for ev in batch.iter() {
                    rb.push(*ev, &mut ordered);
                }
                for ev in ordered.drain(..) {
                    engine.on_event(&ev);
                }
            }
        },
        Step::Watermark { wm, .. } => {
            if let Some(rb) = &mut reorder {
                rb.advance(wm, &mut ordered);
                for ev in ordered.drain(..) {
                    engine.on_event(&ev);
                }
            }
            engine.on_watermark(wm);
            drain.take(engine.drain_results());
        }
    });
    Ok((
        secs,
        EngineCounts {
            events,
            results: drain.results,
            late_dropped: reorder.as_ref().map_or(0, ReorderBuffer::late_dropped),
        },
    ))
}

/// The parallel engine ([`SHARDS`] shards, default `ParallelConfig` plus
/// the workload's lateness) over `events` events. Closed loop: `on_batch`
/// of [`BATCH`], `on_watermark` + `drain_results` at the workload's
/// cadence, `finish` inside the timed region after the last batch.
pub fn run_sharded(
    w: &Workload,
    events: u64,
    tail: Tail,
    placement: &Placement,
    sink: Option<&mut Vec<QueryResult>>,
) -> Result<(f64, EngineCounts), String> {
    let mut cfg = ParallelConfig::new(SHARDS);
    cfg.lateness = w.lateness;
    let mut engine = placement
        .spawn_on_others(|| ParallelEngine::with_config(w.queries.clone(), cfg))
        .map_err(|e| e.to_string())?;
    let mut drain = Drain { results: 0, sink };
    let secs = drive(w, events, tail, |step| match step {
        Step::Batch(batch) => {
            let owned = EventBatch::from(std::mem::take(batch));
            engine.on_batch(&owned);
            // Hand the allocation back to the feed loop.
            *batch = owned.into_vec();
        }
        Step::Watermark { wm, last } => {
            engine.on_watermark(wm);
            if last {
                engine.finish();
            }
            drain.take(engine.drain_results());
        }
    });
    if engine.shard_panics() > 0 {
        return Err("a shard worker panicked".into());
    }
    Ok((
        secs,
        EngineCounts {
            events,
            results: drain.results,
            late_dropped: engine.late_dropped(),
        },
    ))
}

/// One `setup_s` sample: query set in hand → engines ready for the first
/// event. Tear-down (joining the shard threads) is not part of it.
pub fn run_setup(w: &Workload, placement: &Placement) -> Result<f64, String> {
    let (q_analyze, q_seq, q_par) = (w.queries.clone(), w.queries.clone(), w.queries.clone());
    let start = Instant::now();
    let groups = QueryAnalyzer::default().analyze(q_analyze);
    let seq = AggregationEngine::new(q_seq);
    let par = placement.spawn_on_others(|| ParallelEngine::new(q_par, SHARDS));
    let secs = start.elapsed().as_secs_f64();
    let groups = groups.map_err(|e| e.to_string())?;
    let seq = seq.map_err(|e| e.to_string())?;
    let par = par.map_err(|e| e.to_string())?;
    black_box((groups.len(), seq.group_count(), par.group_count()));
    Ok(secs)
}

/// What one `run_cluster` call did and cost.
#[derive(Debug)]
pub struct ClusterRun {
    /// The cluster's own report.
    pub report: ClusterReport,
    /// Process CPU time across the call, nanoseconds.
    pub cpu_ns: u64,
    /// Wall time across the call, seconds.
    pub wall_s: f64,
    /// Frames sent over all links.
    pub frames: u64,
    /// NACKs the recovery protocol sent (must be 0: no faults injected).
    pub nacks: u64,
}

/// Counts of a cluster run that must repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterCounts {
    /// Events ingested by the locals.
    pub events: u64,
    /// Results emitted at the root.
    pub results: u64,
    /// Bytes over all links.
    pub bytes: u64,
    /// Frames over all links.
    pub frames: u64,
    /// Raw events the root processed itself.
    pub root_raw_events: u64,
}

impl ClusterRun {
    /// The counts that must be identical in every run on the same input.
    pub fn counts(&self) -> ClusterCounts {
        ClusterCounts {
            events: self.report.events,
            results: self.report.results.len() as u64,
            bytes: self.report.total_bytes(),
            frames: self.frames,
            root_raw_events: self.report.root_raw_events,
        }
    }
}

/// Runs the Desis cluster with (all but) default `ClusterConfig` over `feeds`
/// (already cloned: the clone is not timed). Node threads float over all
/// CPUs; the caller only blocks.
pub fn run_desis_cluster(
    w: &Workload,
    topology: Topology,
    feeds: Vec<Vec<Event>>,
    pace_speedup: Option<f64>,
    placement: &Placement,
) -> Result<ClusterRun, String> {
    let mut cfg = ClusterConfig::new(DistributedSystem::Desis, w.queries.clone(), topology);
    cfg.pace_speedup = pace_speedup;
    // The one non-default setting. After its Flush a sender lingers for
    // retransmit requests and re-sends its last frame every `nack_grace`
    // (200 ms by default) until the parent confirms; when the root is
    // still working through a backlog that probe goes out, is counted as
    // wire traffic, and makes bytes and frames depend on timing. No
    // faults are injected here, so nothing ever needs the probe.
    cfg.recovery.nack_grace = std::time::Duration::from_secs(60);
    let cpu_before = process_cpu_ns();
    let start = Instant::now();
    let report = placement.on_all(|| run_cluster(cfg, feeds));
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_ns = process_cpu_ns() - cpu_before;
    let report = report.map_err(|e| e.to_string())?;
    let frames = (0..report.topology.len() as u32)
        .filter_map(|node| report.metrics.counters.get(&names::egress_msgs(node)))
        .sum();
    let nacks = report
        .metrics
        .counters
        .get(names::RECOVERY_NACKS)
        .copied()
        .unwrap_or(0);
    Ok(ClusterRun {
        report,
        cpu_ns,
        wall_s,
        frames,
        nacks,
    })
}
