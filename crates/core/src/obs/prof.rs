//! Pipeline profiler and flight recorder.
//!
//! The metrics registry counts *what* happened (events, bytes, results);
//! this module attributes *where the time went*: wall time per pipeline
//! stage per lane (a lane is one thread-like execution track — a shard
//! worker, the collector/driver, a cluster node loop, a receiving pump),
//! optional allocation accounting per stage, and a bounded **flight
//! recorder** of periodic [`MetricsSnapshot`] diffs capturing
//! throughput/queue trajectories over a run.
//!
//! # Clock discipline
//!
//! Deterministic paths (the engine, the node state machines) are covered
//! by desis-lint's `no-wallclock` rule: they must not read
//! `Instant::now()` directly, because wall-clock reads there make runs
//! irreproducible. Profiling still needs real time, so every read goes
//! through the injectable [`ProfClock`] facade. The single
//! `Instant::now()` call of the whole subsystem lives in
//! [`ProfClock::wall`] (allowlisted); instrumented call sites only ever
//! see opaque nanosecond readings, and tests inject a
//! [`ProfClock::manual`] clock to make timing assertions exact. Results
//! are *observability output* and never feed back into engine decisions,
//! so determinism of the data path is untouched.
//!
//! # Cost model
//!
//! A [`Scope`] is created only when profiling is enabled: the disabled
//! hot-path cost of [`scope`] is one `Option` check and one relaxed
//! atomic load (the CI overhead gate holds this under 3%). When enabled,
//! a scope costs two clock reads; tallies accumulate in a plain local
//! array per [`ProfHandle`] (no locks, no allocation) and merge into the
//! shared profiler on flush/drop — the same discipline as the trace ring
//! buffers.
//!
//! # Allocation accounting
//!
//! With the `prof-alloc` cargo feature, `alloc::CountingAlloc` can be
//! installed as the global allocator (the `experiments` binary does);
//! every allocation is attributed to the stage active on the allocating
//! thread, giving a per-stage allocs/bytes breakdown in the profile
//! report. Without the feature the accounting compiles away entirely.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use super::{json_escape, names, MetricsRegistry, MetricsSnapshot};

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
    /// Source pacing sleeps (cluster locals replaying at stream rate).
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

/// Accumulated time and call count of one (lane, stage) cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTally {
    /// Nanoseconds spent inside scopes of this stage.
    pub ns: u64,
    /// Number of scopes entered.
    pub calls: u64,
}

#[derive(Debug)]
struct ProfInner {
    enabled: AtomicBool,
    clock: ProfClock,
    start_ns: AtomicU64,
    end_ns: AtomicU64,
    lanes: Mutex<BTreeMap<String, [StageTally; STAGE_COUNT]>>,
}

/// A shared, cloneable profiler: hands out per-lane [`ProfHandle`]s and
/// aggregates their tallies into a [`ProfileReport`].
#[derive(Debug, Clone)]
pub struct Profiler {
    inner: Arc<ProfInner>,
}

fn lock_lanes(
    m: &Mutex<BTreeMap<String, [StageTally; STAGE_COUNT]>>,
) -> std::sync::MutexGuard<'_, BTreeMap<String, [StageTally; STAGE_COUNT]>> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

static GLOBAL_PROF: OnceLock<Profiler> = OnceLock::new();

impl Profiler {
    /// An enabled profiler reading `clock`.
    pub fn new(clock: ProfClock) -> Self {
        let start = clock.now_ns();
        Profiler {
            inner: Arc::new(ProfInner {
                enabled: AtomicBool::new(true),
                clock,
                start_ns: AtomicU64::new(start),
                end_ns: AtomicU64::new(0),
                lanes: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// An installed-but-disabled profiler: handles exist and every
    /// [`scope`] call takes the disabled fast path (the configuration
    /// the CI overhead gate measures).
    pub fn disabled(clock: ProfClock) -> Self {
        let p = Self::new(clock);
        p.set_enabled(false);
        p
    }

    /// Installs `self` as the process-global profiler (first call wins)
    /// for harnesses that cannot thread one through their plumbing.
    /// Returns the installed profiler.
    pub fn install_global(self) -> &'static Profiler {
        GLOBAL_PROF.get_or_init(|| self)
    }

    /// The process-global profiler, if one was installed.
    pub fn global() -> Option<&'static Profiler> {
        GLOBAL_PROF.get()
    }

    /// Whether scopes currently measure.
    pub fn enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Turns measurement on or off (handles stay valid either way).
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Relaxed);
    }

    /// The profiler's clock.
    pub fn clock(&self) -> &ProfClock {
        &self.inner.clock
    }

    /// Marks the start of the measured session (resets the wall span;
    /// accumulated tallies are kept).
    pub fn begin(&self) {
        self.inner
            .start_ns
            .store(self.inner.clock.now_ns(), Ordering::Relaxed);
        self.inner.end_ns.store(0, Ordering::Relaxed);
    }

    /// Marks the end of the measured session.
    pub fn end(&self) {
        self.inner
            .end_ns
            .store(self.inner.clock.now_ns(), Ordering::Relaxed);
    }

    /// Wall nanoseconds of the measured session (`begin` to `end`, or to
    /// now while the session is still open).
    pub fn wall_ns(&self) -> u64 {
        let start = self.inner.start_ns.load(Ordering::Relaxed);
        let end = self.inner.end_ns.load(Ordering::Relaxed);
        let end = if end == 0 {
            self.inner.clock.now_ns()
        } else {
            end
        };
        end.saturating_sub(start)
    }

    /// Creates a handle attributing its scopes to `lane` (e.g.
    /// `"shard0"`, `"driver"`, `"node1"`, `"root"`). Handles with the
    /// same lane merge additively.
    pub fn handle(&self, lane: &str) -> ProfHandle {
        ProfHandle {
            prof: self.clone(),
            lane: lane.to_string(),
            local: [StageTally::default(); STAGE_COUNT],
            recorded_ns: 0,
        }
    }

    fn absorb(&self, lane: &str, local: &[StageTally; STAGE_COUNT]) {
        if local.iter().all(|t| t.calls == 0) {
            return;
        }
        let mut lanes = lock_lanes(&self.inner.lanes);
        let cells = lanes
            .entry(lane.to_string())
            .or_insert([StageTally::default(); STAGE_COUNT]);
        for (cell, add) in cells.iter_mut().zip(local) {
            cell.ns += add.ns;
            cell.calls += add.calls;
        }
    }

    /// Freezes the per-lane stage tallies into a report. Flush (or drop)
    /// outstanding handles first; the wall span is `begin`→`end`.
    pub fn report(&self) -> ProfileReport {
        let lanes = lock_lanes(&self.inner.lanes)
            .iter()
            .map(|(lane, cells)| LaneReport {
                lane: lane.clone(),
                total_ns: cells.iter().map(|t| t.ns).sum(),
                stages: Stage::ALL
                    .iter()
                    .zip(cells.iter())
                    .filter(|(_, t)| t.calls > 0)
                    .map(|(s, t)| StageLine {
                        stage: s.name(),
                        ns: t.ns,
                        calls: t.calls,
                    })
                    .collect(),
            })
            .collect();
        ProfileReport {
            wall_ns: self.wall_ns(),
            lanes,
            #[cfg(feature = "prof-alloc")]
            alloc: alloc::lines(),
        }
    }

    /// Publishes cumulative per-lane per-stage counters
    /// (`prof.<lane>.<stage>_ns` / `_calls`) into `registry`.
    /// Idempotent: counters are raised to the cumulative totals.
    pub fn publish(&self, registry: &MetricsRegistry) {
        let lanes = lock_lanes(&self.inner.lanes);
        for (lane, cells) in lanes.iter() {
            for (stage, tally) in Stage::ALL.iter().zip(cells.iter()) {
                if tally.calls == 0 {
                    continue;
                }
                registry
                    .counter(&names::prof_stage_ns(lane, stage.name()))
                    .raise_to(tally.ns);
                registry
                    .counter(&names::prof_stage_calls(lane, stage.name()))
                    .raise_to(tally.calls);
            }
        }
    }
}

/// A per-lane tally accumulator: scopes write a plain local array, which
/// merges into the shared profiler on [`ProfHandle::flush`] or drop.
#[derive(Debug)]
pub struct ProfHandle {
    prof: Profiler,
    lane: String,
    local: [StageTally; STAGE_COUNT],
    /// Monotone total of nanoseconds attributed through this handle —
    /// the nesting watermark that lets an outer manual span subtract
    /// whatever inner spans recorded during it (self-time semantics).
    recorded_ns: u64,
}

/// An opaque stamp opening a manual stage span (see
/// [`ProfHandle::stamp`]).
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    start_ns: u64,
    nested_ns: u64,
}

impl ProfHandle {
    /// The lane this handle attributes to.
    pub fn lane(&self) -> &str {
        &self.lane
    }

    /// Whether the owning profiler currently measures.
    pub fn enabled(&self) -> bool {
        self.prof.enabled()
    }

    /// Clock stamp opening a manual (non-RAII) stage span, or `None`
    /// while the profiler is disabled. Close it with
    /// [`ProfHandle::record_since`]. The manual pair serves call sites
    /// where an RAII [`Scope`] would borrow-conflict with the
    /// instrumented structure (e.g. `&mut self` methods holding the
    /// handle as a field), and manual spans may nest: the outer span is
    /// charged only its *self* time — anything inner spans recorded
    /// through the same handle in between is subtracted.
    pub fn stamp(&self) -> Option<Stamp> {
        if self.prof.enabled() {
            Some(Stamp {
                start_ns: self.prof.inner.clock.now_ns(),
                nested_ns: self.recorded_ns,
            })
        } else {
            None
        }
    }

    /// Attributes the self time since `stamp` (elapsed minus whatever
    /// nested spans recorded through this handle) to `stage`, counting
    /// one call.
    pub fn record_since(&mut self, stage: Stage, stamp: Stamp) {
        let end_ns = self.prof.inner.clock.now_ns();
        let nested = self.recorded_ns.saturating_sub(stamp.nested_ns);
        let span = end_ns.saturating_sub(stamp.start_ns).saturating_sub(nested);
        let cell = &mut self.local[stage as usize];
        cell.ns += span;
        cell.calls += 1;
        self.recorded_ns += span;
    }

    /// Merges the local tallies into the shared profiler and clears
    /// them. Called automatically on drop.
    pub fn flush(&mut self) {
        let local = std::mem::replace(&mut self.local, [StageTally::default(); STAGE_COUNT]);
        self.prof.absorb(&self.lane, &local);
    }
}

impl Drop for ProfHandle {
    fn drop(&mut self) {
        self.flush();
    }
}

impl Clone for ProfHandle {
    /// A fresh handle on the same lane. Local (unflushed) tallies stay
    /// with the original — they flush exactly once from there — so a
    /// cloned holder merges additively instead of double-counting.
    fn clone(&self) -> Self {
        self.prof.handle(&self.lane)
    }
}

/// Opens a stage scope on `handle` if one exists and profiling is
/// enabled; the returned guard attributes the elapsed time on drop.
///
/// This is the instrumented hot-path entry point: with no handle or a
/// disabled profiler it costs an `Option` check plus one relaxed load.
#[inline]
pub fn scope<'a>(handle: &'a mut Option<ProfHandle>, stage: Stage) -> Option<Scope<'a>> {
    let h = handle.as_mut()?;
    if !h.prof.enabled() {
        return None;
    }
    Some(Scope::enter(h, stage))
}

/// An RAII stage timer: measures from creation to drop and adds the
/// span to its handle's (lane, stage) tally.
#[derive(Debug)]
pub struct Scope<'a> {
    handle: &'a mut ProfHandle,
    stage: Stage,
    start_ns: u64,
    #[cfg(feature = "prof-alloc")]
    prev_tag: u8,
}

impl<'a> Scope<'a> {
    fn enter(handle: &'a mut ProfHandle, stage: Stage) -> Self {
        let start_ns = handle.prof.inner.clock.now_ns();
        #[cfg(feature = "prof-alloc")]
        let prev_tag = set_active_stage(stage as u8);
        Scope {
            handle,
            stage,
            start_ns,
            #[cfg(feature = "prof-alloc")]
            prev_tag,
        }
    }
}

impl Drop for Scope<'_> {
    fn drop(&mut self) {
        let end_ns = self.handle.prof.inner.clock.now_ns();
        let span = end_ns.saturating_sub(self.start_ns);
        let cell = &mut self.handle.local[self.stage as usize];
        cell.ns += span;
        cell.calls += 1;
        self.handle.recorded_ns += span;
        #[cfg(feature = "prof-alloc")]
        set_active_stage(self.prev_tag);
    }
}

#[cfg(feature = "prof-alloc")]
std::thread_local! {
    /// Stage active on this thread, as `Stage as u8`; `u8::MAX` = none.
    /// Const-initialized so the first read cannot recurse into the
    /// counting allocator.
    static ACTIVE_STAGE: std::cell::Cell<u8> = const { std::cell::Cell::new(u8::MAX) };
}

#[cfg(feature = "prof-alloc")]
fn set_active_stage(tag: u8) -> u8 {
    ACTIVE_STAGE.try_with(|c| c.replace(tag)).unwrap_or(u8::MAX)
}

/// Per-stage allocation accounting, active when the `prof-alloc` cargo
/// feature is on *and* [`alloc::CountingAlloc`] is installed as the
/// global allocator (binaries opt in; libraries never install one).
#[cfg(feature = "prof-alloc")]
pub mod alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    use super::{AllocLine, Stage, STAGE_COUNT};

    /// Tally slots: one per stage plus a final slot for allocations made
    /// outside any profiled scope.
    pub const SLOTS: usize = STAGE_COUNT + 1;

    static ALLOCS: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];
    static BYTES: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];

    fn slot() -> usize {
        let tag = super::ACTIVE_STAGE.try_with(|c| c.get()).unwrap_or(u8::MAX);
        (tag as usize).min(STAGE_COUNT)
    }

    fn record(size: usize) {
        let s = slot();
        ALLOCS[s].fetch_add(1, Ordering::Relaxed);
        BYTES[s].fetch_add(size as u64, Ordering::Relaxed);
    }

    /// A [`System`]-backed global allocator counting allocations and
    /// bytes against the stage active on the allocating thread.
    #[derive(Debug, Default, Clone, Copy)]
    pub struct CountingAlloc;

    // SAFETY: delegates every operation to `System` unchanged; the
    // accounting is two relaxed atomic adds with no allocation.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            record(layout.size());
            unsafe { System.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            record(layout.size());
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            record(new_size);
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    /// Cumulative `(allocations, bytes)` per slot (stage order, then the
    /// untagged slot).
    pub fn totals() -> [(u64, u64); SLOTS] {
        let mut out = [(0, 0); SLOTS];
        for (i, cell) in out.iter_mut().enumerate() {
            *cell = (
                ALLOCS[i].load(Ordering::Relaxed),
                BYTES[i].load(Ordering::Relaxed),
            );
        }
        out
    }

    /// Zeroes every slot (run separation in benchmarks).
    pub fn reset() {
        for i in 0..SLOTS {
            ALLOCS[i].store(0, Ordering::Relaxed);
            BYTES[i].store(0, Ordering::Relaxed);
        }
    }

    pub(super) fn lines() -> Vec<AllocLine> {
        let totals = totals();
        let mut out = Vec::new();
        for (i, (allocs, bytes)) in totals.iter().enumerate() {
            if *allocs == 0 {
                continue;
            }
            out.push(AllocLine {
                stage: if i < STAGE_COUNT {
                    Stage::ALL[i].name()
                } else {
                    "untagged"
                },
                allocs: *allocs,
                bytes: *bytes,
            });
        }
        out
    }
}

/// One stage row of a lane's self-time table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageLine {
    /// Stage name ([`Stage::name`]).
    pub stage: &'static str,
    /// Nanoseconds of self time.
    pub ns: u64,
    /// Scopes entered.
    pub calls: u64,
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

    /// Serializes the report (plus an optional flight-recorder timeline)
    /// as a self-contained JSON object.
    pub fn to_json(&self, flight: Option<&FlightRecorder>) -> String {
        let mut out = String::with_capacity(1024);
        let _ = write!(
            out,
            "{{\"wall_ns\":{},\"coverage\":{:.4},\"lanes\":{{",
            self.wall_ns,
            self.coverage()
        );
        for (i, lane) in self.lanes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"total_ns\":{},\"stages\":{{",
                json_escape(&lane.lane),
                lane.total_ns
            );
            for (j, s) in lane.stages.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "\"{}\":{{\"ns\":{},\"calls\":{}}}",
                    s.stage, s.ns, s.calls
                );
            }
            out.push_str("}}");
        }
        out.push('}');
        #[cfg(feature = "prof-alloc")]
        {
            out.push_str(",\"alloc\":{");
            for (i, a) in self.alloc.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "\"{}\":{{\"allocs\":{},\"bytes\":{}}}",
                    a.stage, a.allocs, a.bytes
                );
            }
            out.push('}');
        }
        match flight {
            Some(f) => {
                out.push_str(",\"flight\":");
                f.write_json(&mut out);
            }
            None => out.push_str(",\"flight\":[]"),
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
/// frame, stamped by the profiler clock.
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
            for (j, (name, v)) in f.counters.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{v}", json_escape(name));
            }
            out.push_str("},\"gauges\":{");
            for (j, (name, v)) in f.gauges.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{v}", json_escape(name));
            }
            out.push_str("}}");
        }
        out.push(']');
    }

    /// Extracts Perfetto counter tracks from the timeline: one sampled
    /// series per instrument whose name starts with any of `prefixes`
    /// (counters report per-frame deltas, gauges report levels), as
    /// `(name, [(ts_us, value)])` pairs for
    /// [`crate::obs::trace::TraceTimeline::to_chrome_json_with`].
    pub fn counter_tracks(&self, prefixes: &[&str]) -> Vec<(String, Vec<(u64, f64)>)> {
        let mut tracks: BTreeMap<String, Vec<(u64, f64)>> = BTreeMap::new();
        for f in &self.frames {
            let ts_us = f.at_ns / 1_000;
            for (name, v) in &f.counters {
                if prefixes.iter().any(|p| name.starts_with(p)) {
                    tracks
                        .entry(name.clone())
                        .or_default()
                        .push((ts_us, *v as f64));
                }
            }
            for (name, v) in &f.gauges {
                if prefixes.iter().any(|p| name.starts_with(p)) {
                    tracks
                        .entry(name.clone())
                        .or_default()
                        .push((ts_us, *v as f64));
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
    /// spawn. The registry is anything that dereferences to one from the
    /// sampler thread, e.g. an `Arc<MetricsRegistry>`.
    pub fn spawn(
        registry: impl std::ops::Deref<Target = MetricsRegistry> + Send + 'static,
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
        match self.thread.take() {
            Some(t) => t
                .join()
                .unwrap_or_else(|_| FlightRecorder::new(ProfClock::wall(), 1)),
            None => FlightRecorder::new(ProfClock::wall(), 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_scopes_accumulate_exact_time() {
        let (clock, tick) = ProfClock::manual();
        let prof = Profiler::new(clock);
        prof.begin();
        let mut handle = Some(prof.handle("driver"));
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
        prof.end();
        drop(handle);
        let report = prof.report();
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
    fn disabled_profiler_scopes_are_noops() {
        let (clock, tick) = ProfClock::manual();
        let prof = Profiler::disabled(clock);
        let mut handle = Some(prof.handle("driver"));
        {
            let s = scope(&mut handle, Stage::Slicer);
            assert!(s.is_none());
            tick.fetch_add(100, Ordering::Relaxed);
        }
        drop(handle);
        assert!(prof.report().lanes.is_empty());
        let mut none: Option<ProfHandle> = None;
        assert!(scope(&mut none, Stage::Slicer).is_none());
    }

    #[test]
    fn nested_manual_spans_record_self_time() {
        let (clock, tick) = ProfClock::manual();
        let prof = Profiler::new(clock);
        let mut h = prof.handle("driver");
        let outer = h.stamp().unwrap();
        tick.fetch_add(100, Ordering::Relaxed);
        let inner = h.stamp().unwrap();
        tick.fetch_add(400, Ordering::Relaxed);
        h.record_since(Stage::ShardMerge, inner);
        tick.fetch_add(100, Ordering::Relaxed);
        h.record_since(Stage::Barrier, outer);
        h.flush();
        let report = prof.report();
        let lane = &report.lanes[0];
        let get = |name: &str| lane.stages.iter().find(|s| s.stage == name).unwrap().ns;
        assert_eq!(get("shard_merge"), 400);
        assert_eq!(get("barrier"), 200, "outer span must exclude nested time");
        assert_eq!(lane.total_ns, 600);
    }

    #[test]
    fn handles_on_the_same_lane_merge_additively() {
        let (clock, tick) = ProfClock::manual();
        let prof = Profiler::new(clock);
        let mut a = Some(prof.handle("driver"));
        let mut b = Some(prof.handle("driver"));
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
        let report = prof.report();
        let ingest = report.lanes[0]
            .stages
            .iter()
            .find(|s| s.stage == "ingest")
            .unwrap();
        assert_eq!(ingest.ns, 40);
        assert_eq!(ingest.calls, 2);
    }

    #[test]
    fn publish_writes_prof_counters() {
        let (clock, tick) = ProfClock::manual();
        let prof = Profiler::new(clock);
        let mut h = Some(prof.handle("shard0"));
        {
            let _s = scope(&mut h, Stage::Reorder);
            tick.fetch_add(123, Ordering::Relaxed);
        }
        h.as_mut().unwrap().flush();
        let registry = MetricsRegistry::new();
        prof.publish(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["prof.shard0.reorder_ns"], 123);
        assert_eq!(snap.counters["prof.shard0.reorder_calls"], 1);
        // Idempotent republish.
        prof.publish(&registry);
        assert_eq!(registry.snapshot().counters["prof.shard0.reorder_ns"], 123);
    }

    #[test]
    fn report_json_is_well_formed() {
        let (clock, tick) = ProfClock::manual();
        let prof = Profiler::new(clock);
        prof.begin();
        let mut h = Some(prof.handle("driver"));
        {
            let _s = scope(&mut h, Stage::Barrier);
            tick.fetch_add(1_000, Ordering::Relaxed);
        }
        prof.end();
        drop(h);
        let json = prof.report().to_json(None);
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"wall_ns\":1000"), "{json}");
        assert!(json.contains("\"barrier\""), "{json}");
        assert!(json.contains("\"flight\":[]"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let table = prof.report().to_table();
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
        let prof = Profiler::new(ProfClock::wall());
        prof.begin();
        let mut h = Some(prof.handle("x"));
        {
            let _s = scope(&mut h, Stage::Idle);
            std::thread::sleep(Duration::from_millis(2));
        }
        prof.end();
        drop(h);
        let report = prof.report();
        assert!(report.wall_ns >= 1_000_000, "wall {}", report.wall_ns);
        let idle = &report.lanes[0].stages[0];
        assert_eq!(idle.stage, "idle");
        assert!(idle.ns >= 1_000_000);
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
