//! Stage-time profiling and the flight recorder — both views over the
//! [`MetricsRegistry`].
//!
//! The registry counts *what* happened (events, bytes, results); this
//! module attributes *where the time went*: wall time per pipeline stage
//! per lane (a lane is one thread-like execution track — a shard worker,
//! the collector/driver, a cluster node loop, a receiving pump), kept as
//! the registry's `prof.<lane>.<stage>_{ns,calls}` counters and nowhere
//! else. A run is profiled iff its registry was built by
//! [`MetricsRegistry::profiled`]: a component asks the registry it was
//! handed for its lane ([`MetricsRegistry::lane`]) and gets `None`
//! otherwise — no ambient profiler to look up, no switch to flip on an
//! existing one. [`ProfileReport::from_snapshot`] reads the stage table
//! back out of a snapshot, so it cannot disagree with a metrics export.
//! The bounded [`FlightRecorder`] keeps periodic [`MetricsSnapshot`]
//! diffs: the throughput/queue trajectory of a run.
//!
//! # Spans
//!
//! One span API in two spellings over an `Option<ProfHandle>`: the RAII
//! guard of [`scope`], and the pair [`stamp`] / [`record`] for call sites
//! where a live guard would borrow-conflict (`&mut self` methods holding
//! the handle as a field). Both charge **self time** — elapsed time less
//! what spans nested inside recorded through the same handle — so a
//! lane's stages add up to the time the lane spent inside any span.
//! Without a handle a span costs one `Option` check: the configuration
//! the repo benchmark's end-to-end metrics run, which makes those the
//! overhead gate of the off path. With one it costs two clock reads;
//! tallies accumulate in a plain local array (no locks, no allocation)
//! and reach the registry counters on [`ProfHandle::flush`] / drop.
//!
//! # Clock discipline
//!
//! Deterministic paths (the engine, the node state machines) must not
//! read `Instant::now()` (desis-lint's `no-wallclock` rule): wall-clock
//! reads there make runs irreproducible. Every profiling read goes
//! through the injectable [`ProfClock`]; the subsystem's single
//! `Instant::now()` lives in [`ProfClock::wall`] (allowlisted), and tests
//! inject a [`ProfClock::manual`] clock to make timing assertions exact.
//! Stage times are *observability output* and never feed back into
//! engine decisions.
//!
//! # Allocation accounting
//!
//! With the `prof-alloc` cargo feature, `alloc::CountingAlloc` can be
//! installed as the global allocator (the `experiments` binary does);
//! every allocation is attributed to the stage whose [`scope`] guard is
//! live on the allocating thread. Without the feature the accounting
//! compiles away entirely.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::{names, write_display, write_members, Counter, MetricsRegistry, MetricsSnapshot};

#[cfg(feature = "prof-alloc")]
pub mod alloc;

/// Number of pipeline stages (array dimension of per-lane tallies).
pub const STAGE_COUNT: usize = 15;

/// A pipeline stage a [`Scope`] attributes time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Stage {
    /// Query analysis / group construction (engine build, `add_query`).
    Analyzer = 0,
    /// Inlet work: event intake, batching, key-partitioning, sends.
    Ingest = 1,
    /// Reorder-buffer pushes and advances.
    Reorder = 2,
    /// Per-event slicing (the per-shard slicer pipelines).
    Slicer = 3,
    /// Count-query predicate filtering on the shard side.
    CountFilter = 4,
    /// Watermark barrier: waiting for every live shard's frontier.
    Barrier = 5,
    /// Collector-side fixed-window slice merging.
    ShardMerge = 6,
    /// Collector-side unfixed (session/user-defined) merging.
    UnfixedMerge = 7,
    /// Window assembly over merged slices.
    Assemble = 8,
    /// Sequential count-query replay at the collector.
    Replay = 9,
    /// Result draining and canonical sorting.
    Drain = 10,
    /// Source pacing sleeps (cluster locals replaying at stream rate:
    /// waiting for the next event or heartbeat to fall due).
    Pace = 11,
    /// Receiving pump: blocking on incoming frames.
    Recv = 12,
    /// Receiving pump: decoding and handling one frame.
    Handler = 13,
    /// A worker blocked on its empty input channel.
    Idle = 14,
}

impl Stage {
    /// Every stage, in index order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Analyzer,
        Stage::Ingest,
        Stage::Reorder,
        Stage::Slicer,
        Stage::CountFilter,
        Stage::Barrier,
        Stage::ShardMerge,
        Stage::UnfixedMerge,
        Stage::Assemble,
        Stage::Replay,
        Stage::Drain,
        Stage::Pace,
        Stage::Recv,
        Stage::Handler,
        Stage::Idle,
    ];

    /// Stable lowercase name used in reports and instrument names.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Analyzer => "analyzer",
            Stage::Ingest => "ingest",
            Stage::Reorder => "reorder",
            Stage::Slicer => "slicer",
            Stage::CountFilter => "count_filter",
            Stage::Barrier => "barrier",
            Stage::ShardMerge => "shard_merge",
            Stage::UnfixedMerge => "unfixed_merge",
            Stage::Assemble => "assemble",
            Stage::Replay => "replay",
            Stage::Drain => "drain",
            Stage::Pace => "pace",
            Stage::Recv => "recv",
            Stage::Handler => "handler",
            Stage::Idle => "idle",
        }
    }
}

/// The injectable time source behind every profiling measurement.
///
/// [`ProfClock::wall`] holds the subsystem's only real clock read;
/// [`ProfClock::manual`] is a shared counter tests advance by hand.
#[derive(Debug, Clone)]
pub enum ProfClock {
    /// Monotonic wall time, reported as nanoseconds since the origin.
    Wall(Instant),
    /// A hand-driven nanosecond counter (deterministic tests).
    Manual(Arc<AtomicU64>),
}

impl ProfClock {
    /// A wall clock originating now. This is the single real clock read
    /// of the profiling subsystem (see the module docs).
    pub fn wall() -> Self {
        ProfClock::Wall(Instant::now())
    }

    /// A manual clock plus the handle that advances it (in nanoseconds).
    pub fn manual() -> (Self, Arc<AtomicU64>) {
        let cell = Arc::new(AtomicU64::new(0));
        (ProfClock::Manual(Arc::clone(&cell)), cell)
    }

    /// Nanoseconds since the clock's origin.
    pub fn now_ns(&self) -> u64 {
        match self {
            ProfClock::Wall(origin) => origin.elapsed().as_nanos() as u64,
            ProfClock::Manual(cell) => cell.load(Ordering::Relaxed),
        }
    }
}

/// One holder's view of a lane: spans write a plain local array, which
/// [`ProfHandle::flush`] (or drop) adds to the registry's
/// `prof.<lane>.<stage>_{ns,calls}` counters.
#[derive(Debug)]
pub struct ProfHandle {
    registry: Arc<MetricsRegistry>,
    clock: ProfClock,
    lane: String,
    local: [StageLine; STAGE_COUNT],
    /// `(ns, calls)` counters per stage, resolved by the first flush that
    /// has something for the stage and reused by every later one.
    cells: [Option<(Arc<Counter>, Arc<Counter>)>; STAGE_COUNT],
    /// Monotone total of nanoseconds attributed through this handle —
    /// the nesting watermark that lets an outer span subtract whatever
    /// inner spans recorded during it.
    recorded_ns: u64,
}

/// An opaque stamp opening a span (see [`ProfHandle::stamp`]).
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    start_ns: u64,
    nested_ns: u64,
}

impl ProfHandle {
    pub(super) fn new(registry: Arc<MetricsRegistry>, clock: ProfClock, lane: &str) -> Self {
        ProfHandle {
            registry,
            clock,
            lane: lane.to_string(),
            local: StageLine::row(),
            cells: Default::default(),
            recorded_ns: 0,
        }
    }

    /// Opens a span; close it with [`ProfHandle::record_since`].
    pub fn stamp(&self) -> Stamp {
        Stamp {
            start_ns: self.clock.now_ns(),
            nested_ns: self.recorded_ns,
        }
    }

    /// Attributes the self time since `stamp` (elapsed minus whatever
    /// nested spans recorded through this handle) to `stage`, counting
    /// one call.
    pub fn record_since(&mut self, stage: Stage, stamp: Stamp) {
        let end_ns = self.clock.now_ns();
        let nested = self.recorded_ns.saturating_sub(stamp.nested_ns);
        let span = end_ns.saturating_sub(stamp.start_ns).saturating_sub(nested);
        let cell = &mut self.local[stage as usize];
        cell.ns += span;
        cell.calls += 1;
        self.recorded_ns += span;
    }

    /// Adds the local tallies to the registry counters and clears them.
    /// Called automatically on drop.
    pub fn flush(&mut self) {
        for (tally, cell) in self.local.iter_mut().zip(&mut self.cells) {
            if tally.calls == 0 {
                continue;
            }
            let (ns, calls) = cell.get_or_insert_with(|| {
                let counter = |name: String| self.registry.counter(&name);
                (
                    counter(names::prof_stage_ns(&self.lane, tally.stage)),
                    counter(names::prof_stage_calls(&self.lane, tally.stage)),
                )
            });
            ns.add(std::mem::take(&mut tally.ns));
            calls.add(std::mem::take(&mut tally.calls));
        }
    }
}

impl Drop for ProfHandle {
    fn drop(&mut self) {
        self.flush();
    }
}

impl Clone for ProfHandle {
    /// A fresh handle on the same lane. Unflushed tallies stay with the
    /// original — they flush exactly once from there.
    fn clone(&self) -> Self {
        Self::new(Arc::clone(&self.registry), self.clock.clone(), &self.lane)
    }
}

/// Opens a span of `stage` on `handle`, if there is one; the returned
/// guard closes it on drop.
#[inline]
pub fn scope(handle: &mut Option<ProfHandle>, stage: Stage) -> Option<Scope<'_>> {
    let handle = handle.as_mut()?;
    Some(Scope {
        stamp: handle.stamp(),
        handle,
        stage,
        #[cfg(feature = "prof-alloc")]
        prev_tag: alloc::set_active_stage(stage as u8),
    })
}

/// Opens a manual span on `handle`, if there is one; close it with
/// [`record`].
#[inline]
pub fn stamp(handle: &Option<ProfHandle>) -> Option<Stamp> {
    handle.as_ref().map(ProfHandle::stamp)
}

/// Closes a manual span opened by [`stamp`] on the same `handle`.
#[inline]
pub fn record(handle: &mut Option<ProfHandle>, stage: Stage, stamp: Option<Stamp>) {
    if let (Some(h), Some(t0)) = (handle, stamp) {
        h.record_since(stage, t0);
    }
}

/// The RAII spelling of a span: [`ProfHandle::stamp`] at creation,
/// [`ProfHandle::record_since`] at drop.
#[derive(Debug)]
pub struct Scope<'a> {
    handle: &'a mut ProfHandle,
    stage: Stage,
    stamp: Stamp,
    #[cfg(feature = "prof-alloc")]
    prev_tag: u8,
}

impl Scope<'_> {
    /// The handle the guard borrows, for spans nested inside it.
    pub fn handle(&mut self) -> &mut ProfHandle {
        self.handle
    }
}

impl Drop for Scope<'_> {
    fn drop(&mut self) {
        self.handle.record_since(self.stage, self.stamp);
        #[cfg(feature = "prof-alloc")]
        alloc::set_active_stage(self.prev_tag);
    }
}

/// One stage row of a lane's self-time table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageLine {
    /// Stage name ([`Stage::name`]).
    pub stage: &'static str,
    /// Nanoseconds of self time.
    pub ns: u64,
    /// Spans entered.
    pub calls: u64,
}

impl StageLine {
    /// A lane's empty table: one row per stage, stage order.
    fn row() -> [StageLine; STAGE_COUNT] {
        Stage::ALL.map(|s| StageLine {
            stage: s.name(),
            ns: 0,
            calls: 0,
        })
    }
}

/// One lane's stage breakdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneReport {
    /// Lane label.
    pub lane: String,
    /// Sum of all stage self times.
    pub total_ns: u64,
    /// Per-stage rows, stage order, zero-call rows omitted.
    pub stages: Vec<StageLine>,
}

/// Per-stage allocation totals (only populated under `prof-alloc`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocLine {
    /// Stage name, or `"untagged"` for allocations outside any scope.
    pub stage: &'static str,
    /// Allocation count.
    pub allocs: u64,
    /// Bytes requested.
    pub bytes: u64,
}

/// A frozen profile: wall span, per-lane stage tables, and (under
/// `prof-alloc`) per-stage allocation totals.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Wall nanoseconds of the measured session.
    pub wall_ns: u64,
    /// Per-lane breakdowns, lane order.
    pub lanes: Vec<LaneReport>,
    /// Per-stage allocation totals.
    #[cfg(feature = "prof-alloc")]
    pub alloc: Vec<AllocLine>,
}

impl ProfileReport {
    /// Reads the stage table out of `snap`'s
    /// `prof.<lane>.<stage>_{ns,calls}` counters; `wall_ns` is the span
    /// the caller measured them over. A harness registry holds each
    /// run's counters under a prefix (`cluster.Desis.prof.node1.…`):
    /// lanes of one name add up whatever the prefix, like the counters
    /// of repeated runs do.
    pub fn from_snapshot(snap: &MetricsSnapshot, wall_ns: u64) -> Self {
        let mut table: BTreeMap<&str, [StageLine; STAGE_COUNT]> = BTreeMap::new();
        for (name, value) in &snap.counters {
            let Some((lane, stage, is_ns)) = names::parse_prof_stage(name) else {
                continue;
            };
            let row = table.entry(lane).or_insert_with(StageLine::row);
            let Some(cell) = row.iter_mut().find(|cell| cell.stage == stage) else {
                continue;
            };
            if is_ns {
                cell.ns += value;
            } else {
                cell.calls += value;
            }
        }
        let lanes = table
            .into_iter()
            .map(|(lane, row)| LaneReport {
                lane: lane.to_string(),
                total_ns: row.iter().map(|cell| cell.ns).sum(),
                stages: row.into_iter().filter(|cell| cell.calls > 0).collect(),
            })
            .collect();
        ProfileReport {
            wall_ns,
            lanes,
            #[cfg(feature = "prof-alloc")]
            alloc: alloc::lines(),
        }
    }

    /// Fraction of the wall span accounted for by the busiest lane
    /// (the acceptance metric: a lane that spans the run should cover
    /// ≥ 0.9 of measured wall time). 0 when nothing was measured.
    pub fn coverage(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        let best = self.lanes.iter().map(|l| l.total_ns).max().unwrap_or(0);
        best as f64 / self.wall_ns as f64
    }

    /// Serializes the report as a self-contained JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        let _ = write!(
            out,
            "{{\"wall_ns\":{},\"coverage\":{:.4},\"lanes\":{{",
            self.wall_ns,
            self.coverage()
        );
        let lanes = self.lanes.iter().map(|lane| (&lane.lane, lane));
        write_members(&mut out, lanes, |out, lane| {
            let _ = write!(out, "{{\"total_ns\":{},\"stages\":{{", lane.total_ns);
            let stages = lane.stages.iter().map(|s| (s.stage, s));
            write_members(out, stages, |out, s| {
                let _ = write!(out, "{{\"ns\":{},\"calls\":{}}}", s.ns, s.calls);
            });
            out.push_str("}}");
        });
        out.push('}');
        #[cfg(feature = "prof-alloc")]
        {
            out.push_str(",\"alloc\":{");
            let stages = self.alloc.iter().map(|a| (a.stage, a));
            write_members(&mut out, stages, |out, a| {
                let _ = write!(out, "{{\"allocs\":{},\"bytes\":{}}}", a.allocs, a.bytes);
            });
            out.push('}');
        }
        out.push('}');
        out
    }

    /// Renders the report as a human-readable table.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let wall_ms = self.wall_ns as f64 / 1e6;
        let _ = writeln!(
            out,
            "profile: wall {:.1} ms, coverage {:.1}% (busiest lane / wall)",
            wall_ms,
            self.coverage() * 100.0
        );
        for lane in &self.lanes {
            let _ = writeln!(
                out,
                "  lane {:<14} total {:>10.2} ms",
                lane.lane,
                lane.total_ns as f64 / 1e6
            );
            for s in &lane.stages {
                let pct = if self.wall_ns > 0 {
                    s.ns as f64 * 100.0 / self.wall_ns as f64
                } else {
                    0.0
                };
                let _ = writeln!(
                    out,
                    "    {:<13} {:>10.2} ms  {:>5.1}%  {:>10} calls",
                    s.stage,
                    s.ns as f64 / 1e6,
                    pct,
                    s.calls
                );
            }
        }
        #[cfg(feature = "prof-alloc")]
        for a in &self.alloc {
            let _ = writeln!(
                out,
                "  alloc {:<13} {:>10} allocs  {:>12} bytes",
                a.stage, a.allocs, a.bytes
            );
        }
        out
    }
}

/// One flight-recorder frame: the registry delta since the previous
/// frame, stamped by the recorder's clock.
#[derive(Debug, Clone)]
pub struct FlightFrame {
    /// Clock reading at the frame.
    pub at_ns: u64,
    /// Counter deltas since the previous frame.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels at the frame.
    pub gauges: BTreeMap<String, i64>,
}

/// A bounded ring of periodic [`MetricsSnapshot`] diffs: the trajectory
/// of throughput/queue metrics over a run, kept small enough to always
/// be on (drop-oldest past `capacity` frames).
#[derive(Debug)]
pub struct FlightRecorder {
    clock: ProfClock,
    capacity: usize,
    prev: Option<MetricsSnapshot>,
    frames: std::collections::VecDeque<FlightFrame>,
    /// Frames dropped by the ring bound.
    dropped: u64,
}

impl FlightRecorder {
    /// A recorder stamping frames with `clock`, retaining at most
    /// `capacity` frames (clamped to ≥ 1).
    pub fn new(clock: ProfClock, capacity: usize) -> Self {
        FlightRecorder {
            clock,
            capacity: capacity.max(1),
            prev: None,
            frames: std::collections::VecDeque::new(),
            dropped: 0,
        }
    }

    /// Samples `registry`: the first tick only baselines, every later
    /// tick appends one frame holding the delta since the previous tick.
    pub fn tick(&mut self, registry: &MetricsRegistry) {
        let snap = registry.snapshot();
        let at_ns = self.clock.now_ns();
        if let Some(prev) = &self.prev {
            let diff = snap.diff(prev);
            self.frames.push_back(FlightFrame {
                at_ns,
                counters: diff.counters.into_iter().filter(|(_, v)| *v > 0).collect(),
                gauges: diff.gauges,
            });
            if self.frames.len() > self.capacity {
                self.frames.pop_front();
                self.dropped += 1;
            }
        }
        self.prev = Some(snap);
    }

    /// Recorded frames, oldest first.
    pub fn frames(&self) -> &std::collections::VecDeque<FlightFrame> {
        &self.frames
    }

    /// Frames dropped by the ring bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Serializes the timeline as a JSON array of frames.
    pub fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, f) in self.frames.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"at_ms\":{:.3},\"counters\":{{",
                f.at_ns as f64 / 1e6
            );
            write_members(out, &f.counters, write_display);
            out.push_str("},\"gauges\":{");
            write_members(out, &f.gauges, write_display);
            out.push_str("}}");
        }
        out.push(']');
    }

    /// Extracts Perfetto counter tracks from the timeline: one sampled
    /// series per instrument whose name starts with any of `prefixes`
    /// (counters report per-frame deltas, gauges report levels), as
    /// `(name, [(ts_us, value)])` pairs for
    /// [`crate::obs::trace::TraceTimeline::to_chrome_json`].
    pub fn counter_tracks(&self, prefixes: &[&str]) -> Vec<(String, Vec<(u64, f64)>)> {
        let mut tracks: BTreeMap<String, Vec<(u64, f64)>> = BTreeMap::new();
        for f in &self.frames {
            let ts_us = f.at_ns / 1_000;
            let counters = f.counters.iter().map(|(name, v)| (name, *v as f64));
            let gauges = f.gauges.iter().map(|(name, v)| (name, *v as f64));
            for (name, v) in counters.chain(gauges) {
                if prefixes.iter().any(|p| name.starts_with(p)) {
                    tracks.entry(name.clone()).or_default().push((ts_us, v));
                }
            }
        }
        tracks.into_iter().collect()
    }
}

/// A background thread ticking a [`FlightRecorder`] against a registry
/// at a fixed period — for runs (cluster figures) whose driver loop has
/// no natural barrier to tick from.
#[derive(Debug)]
pub struct FlightSampler {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<FlightRecorder>>,
}

impl FlightSampler {
    /// Spawns a sampler ticking `registry` every `period` until
    /// [`FlightSampler::finish`], retaining `capacity` frames. Falls
    /// back to an inert sampler (empty timeline) if the thread cannot
    /// spawn.
    pub fn spawn(
        registry: Arc<MetricsRegistry>,
        clock: ProfClock,
        period: Duration,
        capacity: usize,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("desis-flight".to_string())
            .spawn(move || {
                let mut rec = FlightRecorder::new(clock, capacity);
                rec.tick(&registry);
                while !stop2.load(Ordering::Relaxed) {
                    std::thread::sleep(period);
                    rec.tick(&registry);
                }
                rec
            })
            .ok();
        FlightSampler { stop, thread }
    }

    /// Stops the sampler and returns the recorded timeline.
    pub fn finish(mut self) -> FlightRecorder {
        self.stop.store(true, Ordering::Relaxed);
        let recorded = self.thread.take().and_then(|t| t.join().ok());
        recorded.unwrap_or_else(|| FlightRecorder::new(ProfClock::wall(), 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profiled() -> (Arc<MetricsRegistry>, Arc<AtomicU64>) {
        let (clock, tick) = ProfClock::manual();
        (Arc::new(MetricsRegistry::profiled(clock)), tick)
    }

    fn stage_ns(report: &ProfileReport, lane: &str, stage: &str) -> u64 {
        let lane = report.lanes.iter().find(|l| l.lane == lane).unwrap();
        lane.stages.iter().find(|s| s.stage == stage).unwrap().ns
    }

    #[test]
    fn manual_clock_scopes_accumulate_exact_time() {
        let (registry, tick) = profiled();
        let mut handle = registry.lane("driver");
        {
            let _s = scope(&mut handle, Stage::Slicer);
            tick.fetch_add(500, Ordering::Relaxed);
        }
        {
            let _s = scope(&mut handle, Stage::Slicer);
            tick.fetch_add(250, Ordering::Relaxed);
        }
        {
            let _s = scope(&mut handle, Stage::Assemble);
            tick.fetch_add(250, Ordering::Relaxed);
        }
        drop(handle);
        let report = ProfileReport::from_snapshot(&registry.snapshot(), 1_000);
        assert_eq!(report.wall_ns, 1_000);
        assert_eq!(report.lanes.len(), 1);
        let lane = &report.lanes[0];
        assert_eq!(lane.lane, "driver");
        assert_eq!(lane.total_ns, 1_000);
        let slicer = lane.stages.iter().find(|s| s.stage == "slicer").unwrap();
        assert_eq!(slicer.ns, 750);
        assert_eq!(slicer.calls, 2);
        assert!((report.coverage() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn an_unprofiled_registry_hands_out_no_lane_and_spans_are_noops() {
        let registry = Arc::new(MetricsRegistry::new());
        assert!(registry.prof_clock().is_none());
        let mut none = registry.lane("driver");
        assert!(none.is_none());
        assert!(scope(&mut none, Stage::Slicer).is_none());
        let t0 = stamp(&none);
        assert!(t0.is_none());
        record(&mut none, Stage::Slicer, t0);
        assert_eq!(registry.snapshot(), MetricsSnapshot::default());
        let report = ProfileReport::from_snapshot(&registry.snapshot(), 100);
        assert!(report.lanes.is_empty());
    }

    /// Self time whichever spelling opens the outer or the inner span.
    #[test]
    fn nested_manual_spans_record_self_time() {
        let (registry, tick) = profiled();
        let advance = |ns| tick.fetch_add(ns, Ordering::Relaxed);
        // Manual inside manual.
        let mut h = registry.lane("manual").unwrap();
        let outer = h.stamp();
        advance(100);
        let inner = h.stamp();
        advance(400);
        h.record_since(Stage::ShardMerge, inner);
        advance(100);
        h.record_since(Stage::Barrier, outer);
        drop(h);
        // RAII inside manual.
        let mut h = registry.lane("raii_in_manual");
        let outer = stamp(&h);
        advance(100);
        {
            let _inner = scope(&mut h, Stage::ShardMerge);
            advance(400);
        }
        advance(100);
        record(&mut h, Stage::Barrier, outer);
        drop(h);
        // Manual inside RAII.
        let mut h = registry.lane("manual_in_raii");
        {
            let mut outer = scope(&mut h, Stage::Barrier).unwrap();
            advance(100);
            let inner = outer.handle().stamp();
            advance(400);
            outer.handle().record_since(Stage::ShardMerge, inner);
            advance(100);
        }
        drop(h);
        let report = ProfileReport::from_snapshot(&registry.snapshot(), 1_800);
        for lane in ["manual", "raii_in_manual", "manual_in_raii"] {
            assert_eq!(stage_ns(&report, lane, "shard_merge"), 400, "{lane}");
            assert_eq!(
                stage_ns(&report, lane, "barrier"),
                200,
                "{lane}: outer span must exclude nested time"
            );
        }
        assert!(report.lanes.iter().all(|l| l.total_ns == 600));
    }

    #[test]
    fn handles_on_the_same_lane_merge_additively() {
        let (registry, tick) = profiled();
        let mut a = registry.lane("driver");
        let mut b = a.clone();
        {
            let _s = scope(&mut a, Stage::Ingest);
            tick.fetch_add(10, Ordering::Relaxed);
        }
        {
            let _s = scope(&mut b, Stage::Ingest);
            tick.fetch_add(30, Ordering::Relaxed);
        }
        drop(a);
        drop(b);
        let report = ProfileReport::from_snapshot(&registry.snapshot(), 40);
        let ingest = &report.lanes[0].stages[0];
        assert_eq!((ingest.stage, ingest.ns, ingest.calls), ("ingest", 40, 2));
    }

    #[test]
    fn flush_adds_into_prof_counters_exactly_once() {
        let (registry, tick) = profiled();
        let mut h = registry.lane("shard0");
        {
            let _s = scope(&mut h, Stage::Reorder);
            tick.fetch_add(123, Ordering::Relaxed);
        }
        h.as_mut().unwrap().flush();
        let snap = registry.snapshot();
        assert_eq!(snap.counters["prof.shard0.reorder_ns"], 123);
        assert_eq!(snap.counters["prof.shard0.reorder_calls"], 1);
        assert_eq!(snap.counters.len(), 2, "only stages that ran get counters");
        // Nothing new: a second flush and the drop add nothing.
        h.as_mut().unwrap().flush();
        drop(h);
        assert_eq!(registry.snapshot(), snap);
    }

    /// A harness merges each run's registry under a prefix; the report
    /// over the harness registry adds lanes of one name up.
    #[test]
    fn report_reads_lanes_under_merge_prefixes() {
        let harness = MetricsRegistry::new();
        for (prefix, ns) in [("cluster.Desis.", 70), ("cluster.Scotty.", 30)] {
            let (run, tick) = profiled();
            let mut h = run.lane("node1");
            {
                let _s = scope(&mut h, Stage::Ingest);
                tick.fetch_add(ns, Ordering::Relaxed);
            }
            drop(h);
            harness.merge_snapshot(prefix, &run.snapshot());
        }
        let report = ProfileReport::from_snapshot(&harness.snapshot(), 100);
        assert_eq!(report.lanes.len(), 1);
        assert_eq!(stage_ns(&report, "node1", "ingest"), 100);
        assert_eq!(report.lanes[0].stages[0].calls, 2);
    }

    #[test]
    fn report_json_is_well_formed() {
        let (registry, tick) = profiled();
        let mut h = registry.lane("driver");
        {
            let _s = scope(&mut h, Stage::Barrier);
            tick.fetch_add(1_000, Ordering::Relaxed);
        }
        drop(h);
        let report = ProfileReport::from_snapshot(&registry.snapshot(), 1_000);
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"wall_ns\":1000"), "{json}");
        assert!(json.contains("\"barrier\""), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let table = report.to_table();
        assert!(table.contains("barrier"), "{table}");
        assert!(table.contains("coverage"), "{table}");
    }

    #[test]
    fn flight_recorder_frames_hold_deltas_and_ring_bounds() {
        let (clock, tick) = ProfClock::manual();
        let registry = MetricsRegistry::new();
        let mut rec = FlightRecorder::new(clock, 3);
        registry.counter("events").add(10);
        rec.tick(&registry); // baseline, no frame
        assert!(rec.frames().is_empty());
        for i in 0..5u64 {
            registry.counter("events").add(100 + i);
            registry.gauge("depth").set(i as i64);
            tick.fetch_add(1_000_000, Ordering::Relaxed);
            rec.tick(&registry);
        }
        assert_eq!(rec.frames().len(), 3, "ring bound");
        assert_eq!(rec.dropped(), 2);
        let last = rec.frames().back().unwrap();
        assert_eq!(last.counters["events"], 104);
        assert_eq!(last.gauges["depth"], 4);
        let mut json = String::new();
        rec.write_json(&mut json);
        assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
        assert!(json.contains("\"events\":104"), "{json}");
        let tracks = rec.counter_tracks(&["ev"]);
        assert_eq!(tracks.len(), 1);
        assert_eq!(tracks[0].0, "events");
        assert_eq!(tracks[0].1.len(), 3);
        assert!(rec.counter_tracks(&["nomatch."]).is_empty());
    }

    #[test]
    fn wall_clock_advances() {
        let clock = ProfClock::wall();
        let registry = Arc::new(MetricsRegistry::profiled(clock.clone()));
        let start = clock.now_ns();
        let mut h = registry.lane("x");
        {
            let _s = scope(&mut h, Stage::Idle);
            std::thread::sleep(Duration::from_millis(2));
        }
        drop(h);
        let wall = clock.now_ns() - start;
        let report = ProfileReport::from_snapshot(&registry.snapshot(), wall);
        assert!(report.wall_ns >= 1_000_000, "wall {}", report.wall_ns);
        let idle = &report.lanes[0].stages[0];
        assert_eq!(idle.stage, "idle");
        assert!(idle.ns >= 1_000_000 && idle.ns <= wall);
    }

    #[test]
    fn flight_sampler_collects_in_background() {
        let registry = Arc::new(MetricsRegistry::new());
        let sampler = FlightSampler::spawn(
            Arc::clone(&registry),
            ProfClock::wall(),
            Duration::from_millis(1),
            1024,
        );
        // Spread increments across many sampler periods so some land
        // after the baseline tick regardless of thread scheduling.
        for _ in 0..25 {
            registry.counter("ticks").add(1);
            std::thread::sleep(Duration::from_millis(2));
        }
        let rec = sampler.finish();
        assert!(!rec.frames().is_empty());
        let total: u64 = rec
            .frames()
            .iter()
            .map(|f| f.counters.get("ticks").copied().unwrap_or(0))
            .sum();
        assert!(total >= 1, "no counter deltas observed");
        assert!(total <= 25);
    }

    #[test]
    fn stage_names_are_distinct_and_indexed() {
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), STAGE_COUNT);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), STAGE_COUNT, "duplicate stage name");
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(*s as usize, i, "ALL out of index order");
        }
    }
}
