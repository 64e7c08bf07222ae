//! Causal slice tracing: cross-node provenance spans.
//!
//! The metrics registry answers *how much* (bytes, messages, latency
//! distributions) but not *where one window result spent its time*. This
//! module mints a [`TraceId`] when a slice starts accumulating events at a
//! leaf and follows it — through sealing, wire encoding, link transfer,
//! intermediate merging, and root window assembly — to the emitted result.
//!
//! Recording is lock-cheap: each component holds a private
//! [`TraceRecorder`] whose ring buffer is written without any
//! synchronization (bounded, drop-oldest; drops are counted and exposed
//! as a registry counter). Buffers flow back to the shared
//! [`TraceCollector`] when a recorder is dropped (worker threads end) or
//! explicitly flushed. The collector stitches them into causally-ordered
//! per-trace chains ([`TraceTimeline`]), computes per-stage latency
//! breakdowns per query (feeding the existing
//! [`LogHistogram`](crate::obs::LogHistogram)s), and
//! exports Chrome trace-event JSON loadable in Perfetto or
//! `chrome://tracing`.
//!
//! Sampling is decided at mint time: `sample_every = N` traces every Nth
//! slice, so with tracing installed but no slice sampled the hot path
//! cost is a branch on a `None`.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::Mutex;

use super::{names, MetricsRegistry};

/// Registry counter name for ring-buffer overflow drops.
pub const DROPPED_EVENTS_COUNTER: &str = names::TRACE_DROPPED_EVENTS;

/// Default ring-buffer capacity per recorder (events).
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Identity of one traced slice, minted at slice creation on a leaf and
/// carried unchanged through sealing, the wire codec, and every merge
/// level up to the root result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(u64);

impl TraceId {
    /// Rebuilds an id decoded from the wire.
    pub fn from_u64(v: u64) -> Self {
        TraceId(v)
    }

    /// Raw id for wire encoding.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Typed span event kinds, in causal stage order along a slice's journey.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A leaf slicer opened a new slice (first event accumulated).
    SliceCreated,
    /// The slice was sealed (boundary crossed / watermark).
    SliceSealed,
    /// The slice was encoded for the wire (`bytes` = frame size).
    SliceEncoded {
        /// Encoded frame size in bytes.
        bytes: u64,
    },
    /// The encoded frame entered the outgoing link.
    LinkSend,
    /// A parent decoded the slice off an incoming link.
    LinkRecv,
    /// A merger began folding this slice into a pending merge.
    MergeStart,
    /// The merged slice covering this trace was released downstream.
    MergeDone,
    /// The root assembled a window terminated by this slice.
    WindowAssembled,
    /// A result of `query` was emitted from a window this slice closed.
    ResultEmitted {
        /// The query whose result was emitted.
        query: u64,
    },
    /// A parent noticed `child` lagging its siblings' watermarks.
    ChildSuspect {
        /// The child node the parent is suspicious of.
        child: u32,
    },
    /// A parent detected a sequence gap from `child` and began NACKing.
    ChildRecovering {
        /// The child node being recovered.
        child: u32,
    },
    /// A previously suspect or recovering `child` returned to healthy.
    ChildRecovered {
        /// The child node that recovered.
        child: u32,
    },
    /// The parent gave up on `child` (retry budget exhausted, decode
    /// failure without backchannel, or disconnect) and flushed on its
    /// behalf.
    ChildLost {
        /// The child node declared lost.
        child: u32,
    },
}

impl SpanKind {
    /// Stable name used in trace exports.
    pub fn name(&self) -> &'static str {
        match self {
            SpanKind::SliceCreated => "SliceCreated",
            SpanKind::SliceSealed => "SliceSealed",
            SpanKind::SliceEncoded { .. } => "SliceEncoded",
            SpanKind::LinkSend => "LinkSend",
            SpanKind::LinkRecv => "LinkRecv",
            SpanKind::MergeStart => "MergeStart",
            SpanKind::MergeDone => "MergeDone",
            SpanKind::WindowAssembled => "WindowAssembled",
            SpanKind::ResultEmitted { .. } => "ResultEmitted",
            SpanKind::ChildSuspect { .. } => "ChildSuspect",
            SpanKind::ChildRecovering { .. } => "ChildRecovering",
            SpanKind::ChildRecovered { .. } => "ChildRecovered",
            SpanKind::ChildLost { .. } => "ChildLost",
        }
    }

    /// Position in the canonical leaf-to-root stage order. Multi-level
    /// topologies repeat encode/send/recv/merge stages, so this orders
    /// kinds within one hop, not globally.
    pub fn stage_index(&self) -> u8 {
        match self {
            SpanKind::SliceCreated => 0,
            SpanKind::SliceSealed => 1,
            SpanKind::SliceEncoded { .. } => 2,
            SpanKind::LinkSend => 3,
            SpanKind::LinkRecv => 4,
            SpanKind::MergeStart => 5,
            SpanKind::MergeDone => 6,
            SpanKind::WindowAssembled => 7,
            SpanKind::ResultEmitted { .. } => 8,
            SpanKind::ChildSuspect { .. } => 9,
            SpanKind::ChildRecovering { .. } => 10,
            SpanKind::ChildRecovered { .. } => 11,
            SpanKind::ChildLost { .. } => 12,
        }
    }
}

/// One recorded span event.
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent {
    /// The slice identity this event belongs to.
    pub trace: TraceId,
    /// What happened.
    pub kind: SpanKind,
    /// Node that recorded the event.
    pub node: u32,
    /// Monotonic instant of the event.
    pub at: Instant,
}

/// State shared between the collector and all its recorders.
#[derive(Debug)]
struct TraceShared {
    /// Next [`TraceId`] to mint (starts at 1).
    next_id: AtomicU64,
    /// Mint a trace for every Nth slice (1 = every slice).
    sample_every: u64,
    /// Slices seen so far across all recorders (sampling position).
    seq: AtomicU64,
    /// Ring-buffer capacity handed to each recorder.
    capacity: usize,
    /// Events overwritten by drop-oldest across all recorders.
    drops: AtomicU64,
    /// Finished ring buffers, flushed when recorders drop.
    sink: Mutex<Vec<Vec<TraceEvent>>>,
}

impl TraceShared {
    /// Samples one slice creation: every `sample_every`-th slice gets an
    /// id; the rest return `None` and stay untraced end to end.
    fn maybe_mint(&self) -> Option<TraceId> {
        let n = self.seq.fetch_add(1, Ordering::Relaxed);
        if !n.is_multiple_of(self.sample_every) {
            return None;
        }
        Some(TraceId(self.next_id.fetch_add(1, Ordering::Relaxed)))
    }
}

/// A bounded, drop-oldest ring buffer of [`TraceEvent`]s owned by one
/// component on one thread. Recording never takes a lock; the buffer is
/// handed to the collector when the recorder is dropped.
#[derive(Debug)]
pub struct TraceRecorder {
    shared: Arc<TraceShared>,
    node: u32,
    buf: Vec<TraceEvent>,
    /// Next overwrite position once the ring is full.
    head: usize,
    dropped: u64,
}

impl TraceRecorder {
    /// Samples one slice creation (see [`TraceCollector`] sampling).
    pub fn maybe_mint(&self) -> Option<TraceId> {
        self.shared.maybe_mint()
    }

    /// Records a span event now. O(1), no locks; overwrites the oldest
    /// event (counting a drop) when the ring is full.
    pub fn record(&mut self, trace: TraceId, kind: SpanKind) {
        let ev = TraceEvent {
            trace,
            kind,
            node: self.node,
            at: Instant::now(),
        };
        let cap = self.shared.capacity;
        if self.buf.len() < cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % cap;
            self.dropped += 1;
        }
    }

    /// Hands the buffered events to the collector, emptying this
    /// recorder. Called automatically on drop.
    pub fn flush(&mut self) {
        if self.dropped > 0 {
            self.shared.drops.fetch_add(self.dropped, Ordering::Relaxed);
            self.dropped = 0;
        }
        if self.buf.is_empty() {
            return;
        }
        // Un-rotate the ring so events leave in record order.
        let mut events = std::mem::take(&mut self.buf);
        events.rotate_left(self.head);
        self.head = 0;
        let mut sink = lock_sink(&self.shared.sink);
        sink.push(events);
    }
}

impl Clone for TraceRecorder {
    /// A clone is a fresh, empty recorder on the same collector (ring
    /// buffers are per-component and never shared).
    fn clone(&self) -> Self {
        TraceRecorder {
            shared: Arc::clone(&self.shared),
            node: self.node,
            buf: Vec::new(),
            head: 0,
            dropped: 0,
        }
    }
}

impl Drop for TraceRecorder {
    fn drop(&mut self) {
        self.flush();
    }
}

fn lock_sink(m: &Mutex<Vec<Vec<TraceEvent>>>) -> crate::sync::MutexGuard<'_, Vec<Vec<TraceEvent>>> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Mints sampled [`TraceId`]s, hands out per-component
/// [`TraceRecorder`]s, and stitches their buffers into a
/// [`TraceTimeline`].
#[derive(Debug, Clone)]
pub struct TraceCollector {
    shared: Arc<TraceShared>,
}

impl TraceCollector {
    /// Creates a collector tracing every `sample_every`-th slice
    /// (clamped to ≥ 1) with `capacity`-event ring buffers per recorder.
    pub fn new(sample_every: u64, capacity: usize) -> Self {
        TraceCollector {
            shared: Arc::new(TraceShared {
                next_id: AtomicU64::new(1),
                sample_every: sample_every.max(1),
                seq: AtomicU64::new(0),
                capacity: capacity.max(1),
                drops: AtomicU64::new(0),
                sink: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Creates a recorder attributed to `node`.
    pub fn recorder(&self, node: u32) -> TraceRecorder {
        TraceRecorder {
            shared: Arc::clone(&self.shared),
            node,
            buf: Vec::new(),
            head: 0,
            dropped: 0,
        }
    }

    /// Events overwritten by drop-oldest so far (flushed recorders only).
    pub fn dropped(&self) -> u64 {
        self.shared.drops.load(Ordering::Relaxed)
    }

    /// Takes every flushed buffer and stitches the events into
    /// causally-ordered per-trace chains. Live (unflushed) recorders are
    /// not included; drop or flush them first.
    pub fn drain_timeline(&self) -> TraceTimeline {
        let buffers = std::mem::take(&mut *lock_sink(&self.shared.sink));
        let mut events: Vec<TraceEvent> = buffers.into_iter().flatten().collect();
        // Stable sort by (trace, time, stage): stage breaks exact-instant
        // ties in causal order on coarse clocks.
        events.sort_by(|a, b| {
            (a.trace, a.at, a.kind.stage_index()).cmp(&(b.trace, b.at, b.kind.stage_index()))
        });
        let epoch = events.iter().map(|e| e.at).min();
        let mut chains: Vec<TraceChain> = Vec::new();
        for ev in events {
            match chains.last_mut() {
                Some(chain) if chain.trace == ev.trace => chain.events.push(ev),
                _ => chains.push(TraceChain {
                    trace: ev.trace,
                    events: vec![ev],
                }),
            }
        }
        TraceTimeline {
            chains,
            epoch,
            dropped: self.dropped(),
        }
    }
}

/// All recorded events of one trace id, in causal (time) order.
#[derive(Debug, Clone)]
pub struct TraceChain {
    /// The slice identity.
    pub trace: TraceId,
    /// Events in ascending time order.
    pub events: Vec<TraceEvent>,
}

impl TraceChain {
    /// Whether the chain covers the full journey: starts at
    /// `SliceCreated`, was sealed, and ends in `ResultEmitted`.
    pub fn is_complete(&self) -> bool {
        matches!(
            self.events.first().map(|e| e.kind),
            Some(SpanKind::SliceCreated)
        ) && matches!(
            self.events.last().map(|e| e.kind),
            Some(SpanKind::ResultEmitted { .. })
        ) && self.events.iter().any(|e| e.kind == SpanKind::SliceSealed)
    }

    /// The query of the final `ResultEmitted`, if the chain has one.
    pub fn result_query(&self) -> Option<u64> {
        self.events.iter().rev().find_map(|e| match e.kind {
            SpanKind::ResultEmitted { query } => Some(query),
            _ => None,
        })
    }

    /// First event of `kind_name`, by stable span name.
    fn first(&self, name: &str) -> Option<&TraceEvent> {
        self.events.iter().find(|e| e.kind.name() == name)
    }

    /// Last event of `kind_name`, by stable span name.
    fn last(&self, name: &str) -> Option<&TraceEvent> {
        self.events.iter().rev().find(|e| e.kind.name() == name)
    }

    /// Per-stage latency breakdown in microseconds:
    /// `(stage name, duration_us)`. Stages with missing endpoints are
    /// omitted; multi-hop chains report first-to-last per stage.
    pub fn stage_breakdown_us(&self) -> Vec<(&'static str, u64)> {
        let mut out = Vec::new();
        let dur = |a: Option<&TraceEvent>, b: Option<&TraceEvent>| -> Option<u64> {
            let (a, b) = (a?, b?);
            Some(b.at.saturating_duration_since(a.at).as_micros() as u64)
        };
        if let Some(d) = dur(self.first("SliceCreated"), self.first("SliceSealed")) {
            out.push(("slice", d));
        }
        if let Some(d) = dur(self.first("SliceEncoded"), self.last("LinkRecv")) {
            out.push(("ship", d));
        }
        if let Some(d) = dur(self.first("MergeStart"), self.last("MergeDone")) {
            out.push(("merge", d));
        }
        let assembled = self.last("ResultEmitted");
        let merge_done = self.last("MergeDone").or_else(|| self.last("LinkRecv"));
        if let Some(d) = dur(merge_done, assembled) {
            out.push(("assemble", d));
        }
        if let Some(d) = dur(self.events.first(), self.events.last()) {
            out.push(("total", d));
        }
        out
    }
}

/// A causally-ordered view over every flushed recorder buffer.
#[derive(Debug, Clone)]
pub struct TraceTimeline {
    /// Per-trace chains, ordered by trace id.
    pub chains: Vec<TraceChain>,
    /// Earliest recorded instant (timestamp zero of the export).
    epoch: Option<Instant>,
    /// Ring-buffer drops at drain time.
    pub dropped: u64,
}

impl TraceTimeline {
    /// Number of chains covering the full leaf-to-result journey.
    pub fn complete_chains(&self) -> usize {
        self.chains.iter().filter(|c| c.is_complete()).count()
    }

    /// Publishes per-stage latency breakdowns per query into `registry`
    /// (`trace.q<id>.<stage>_us` histograms) and the ring-buffer drop
    /// count ([`DROPPED_EVENTS_COUNTER`]).
    pub fn publish(&self, registry: &MetricsRegistry) {
        registry
            .counter(DROPPED_EVENTS_COUNTER)
            .raise_to(self.dropped);
        for chain in &self.chains {
            let Some(query) = chain.result_query() else {
                continue;
            };
            for (stage, us) in chain.stage_breakdown_us() {
                registry
                    .histogram(&names::trace_stage_us(query, stage))
                    .record(us);
            }
        }
    }

    /// Serializes the timeline as Chrome trace-event JSON (the format
    /// Perfetto and `chrome://tracing` load): one instant event per span
    /// plus one duration (`"ph":"X"`) event per stage, with `pid` =
    /// recording node and `tid` = trace id — and one Perfetto counter
    /// track (`"ph":"C"`) per entry of `tracks` under a synthetic `pid`
    /// 999999 ("metrics"). Track samples are `(ts_us, value)` pairs —
    /// e.g. flight-recorder counter rates via
    /// [`crate::obs::prof::FlightRecorder::counter_tracks`] — on the
    /// recorder's own clock, whose origin for a run traced end to end
    /// coincides with the span epoch to within startup latency.
    pub fn to_chrome_json(&self, tracks: &[(String, Vec<(u64, f64)>)]) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut push_event = |out: &mut String, json: String| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&json);
        };
        const METRICS_PID: u32 = 999_999;
        for (track, samples) in tracks {
            let name = crate::obs::json_escape(track);
            for (ts, value) in samples {
                push_event(
                    &mut out,
                    format!(
                        "{{\"name\":\"{name}\",\"cat\":\"metric\",\"ph\":\"C\",\
                         \"ts\":{ts},\"pid\":{METRICS_PID},\
                         \"args\":{{\"value\":{value}}}}}"
                    ),
                );
            }
        }
        if !tracks.is_empty() {
            push_event(
                &mut out,
                format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{METRICS_PID},\
                     \"args\":{{\"name\":\"metrics\"}}}}"
                ),
            );
        }
        let Some(epoch) = self.epoch else {
            out.push_str("]}");
            return out;
        };
        let ts_us = |at: Instant| at.saturating_duration_since(epoch).as_micros() as u64;
        let mut nodes_seen = std::collections::BTreeSet::new();
        for chain in &self.chains {
            for ev in &chain.events {
                nodes_seen.insert(ev.node);
                let mut args = format!("\"trace\":{}", ev.trace);
                match ev.kind {
                    SpanKind::SliceEncoded { bytes } => {
                        let _ = write!(args, ",\"bytes\":{bytes}");
                    }
                    SpanKind::ResultEmitted { query } => {
                        let _ = write!(args, ",\"query\":{query}");
                    }
                    _ => {}
                }
                push_event(
                    &mut out,
                    format!(
                        "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"i\",\"s\":\"t\",\
                         \"ts\":{},\"pid\":{},\"tid\":{},\"args\":{{{}}}}}",
                        ev.kind.name(),
                        ts_us(ev.at),
                        ev.node,
                        chain.trace,
                        args,
                    ),
                );
            }
            // Stage duration events, anchored at the stage's start node.
            let start = match chain.events.first() {
                Some(e) => e,
                None => continue,
            };
            let mut cursor = ts_us(start.at);
            for (stage, us) in chain.stage_breakdown_us() {
                if stage == "total" {
                    continue;
                }
                push_event(
                    &mut out,
                    format!(
                        "{{\"name\":\"{}\",\"cat\":\"stage\",\"ph\":\"X\",\
                         \"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\
                         \"args\":{{\"trace\":{}}}}}",
                        stage, cursor, us, start.node, chain.trace, chain.trace,
                    ),
                );
                cursor += us;
            }
        }
        for node in nodes_seen {
            push_event(
                &mut out,
                format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{node},\
                     \"args\":{{\"name\":\"node {node}\"}}}}"
                ),
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_mints_every_nth_slice() {
        let tc = TraceCollector::new(3, 16);
        let rec = tc.recorder(0);
        let minted: Vec<bool> = (0..9).map(|_| rec.maybe_mint().is_some()).collect();
        assert_eq!(
            minted,
            vec![true, false, false, true, false, false, true, false, false]
        );
    }

    #[test]
    fn ring_buffer_drops_oldest_and_counts() {
        let tc = TraceCollector::new(1, 4);
        let mut rec = tc.recorder(7);
        for _ in 0..6 {
            let id = rec.maybe_mint().unwrap();
            rec.record(id, SpanKind::SliceCreated);
        }
        drop(rec);
        assert_eq!(tc.dropped(), 2);
        let tl = tc.drain_timeline();
        // Oldest two events (traces 1, 2) were overwritten.
        let ids: Vec<u64> = tl.chains.iter().map(|c| c.trace.as_u64()).collect();
        assert_eq!(ids, vec![3, 4, 5, 6]);
        assert_eq!(tl.dropped, 2);
    }

    #[test]
    fn timeline_stitches_chains_across_recorders() {
        let tc = TraceCollector::new(1, 64);
        let mut leaf = tc.recorder(1);
        let mut root = tc.recorder(0);
        let id = leaf.maybe_mint().unwrap();
        leaf.record(id, SpanKind::SliceCreated);
        leaf.record(id, SpanKind::SliceSealed);
        leaf.record(id, SpanKind::SliceEncoded { bytes: 99 });
        leaf.record(id, SpanKind::LinkSend);
        root.record(id, SpanKind::LinkRecv);
        root.record(id, SpanKind::MergeStart);
        root.record(id, SpanKind::MergeDone);
        root.record(id, SpanKind::WindowAssembled);
        root.record(id, SpanKind::ResultEmitted { query: 42 });
        drop(leaf);
        drop(root);
        let tl = tc.drain_timeline();
        assert_eq!(tl.chains.len(), 1);
        let chain = &tl.chains[0];
        assert!(chain.is_complete());
        assert_eq!(chain.result_query(), Some(42));
        assert_eq!(tl.complete_chains(), 1);
        // Timestamps are monotone along the chain.
        for pair in chain.events.windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
        let stages: Vec<&str> = chain.stage_breakdown_us().iter().map(|(s, _)| *s).collect();
        assert_eq!(stages, vec!["slice", "ship", "merge", "assemble", "total"]);
    }

    #[test]
    fn publish_feeds_stage_histograms_and_drop_counter() {
        let tc = TraceCollector::new(1, 64);
        let mut rec = tc.recorder(0);
        let id = rec.maybe_mint().unwrap();
        rec.record(id, SpanKind::SliceCreated);
        rec.record(id, SpanKind::SliceSealed);
        rec.record(id, SpanKind::ResultEmitted { query: 5 });
        drop(rec);
        let registry = MetricsRegistry::new();
        tc.drain_timeline().publish(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counters[DROPPED_EVENTS_COUNTER], 0);
        assert_eq!(snap.histograms["trace.q5.slice_us"].count, 1);
        assert_eq!(snap.histograms["trace.q5.total_us"].count, 1);
    }

    #[test]
    fn chrome_json_is_well_formed() {
        let tc = TraceCollector::new(1, 64);
        let mut rec = tc.recorder(3);
        let id = rec.maybe_mint().unwrap();
        rec.record(id, SpanKind::SliceCreated);
        rec.record(id, SpanKind::SliceEncoded { bytes: 17 });
        rec.record(id, SpanKind::ResultEmitted { query: 1 });
        drop(rec);
        let json = tc.drain_timeline().to_chrome_json(&[]);
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"traceEvents\":["), "{json}");
        assert!(json.contains("\"SliceCreated\""), "{json}");
        assert!(json.contains("\"bytes\":17"), "{json}");
        assert!(json.contains("\"process_name\""), "{json}");
        // Balanced braces/brackets — cheap well-formedness check.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn chrome_json_appends_counter_tracks() {
        let tc = TraceCollector::new(1, 64);
        let mut rec = tc.recorder(0);
        let id = rec.maybe_mint().unwrap();
        rec.record(id, SpanKind::SliceCreated);
        drop(rec);
        let tracks = vec![
            (
                "engine.shard0.events".to_string(),
                vec![(5u64, 10.0), (15, 25.0)],
            ),
            ("prof.driver.barrier_ns".to_string(), vec![(5, 1_000.0)]),
        ];
        let json = tc.drain_timeline().to_chrome_json(&tracks);
        assert!(json.contains("\"ph\":\"C\""), "{json}");
        assert!(json.contains("\"engine.shard0.events\""), "{json}");
        assert!(json.contains("\"value\":25"), "{json}");
        assert!(json.contains("\"name\":\"metrics\""), "{json}");
        // Span events still present alongside the tracks.
        assert!(json.contains("\"SliceCreated\""), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());

        // Tracks alone (no chains) still export well-formed JSON.
        let empty = TraceCollector::new(1, 8).drain_timeline();
        let json = empty.to_chrome_json(&tracks);
        assert!(json.contains("\"ph\":\"C\""), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn empty_timeline_exports_empty_event_list() {
        let tc = TraceCollector::new(1, 8);
        let tl = tc.drain_timeline();
        assert_eq!(tl.chains.len(), 0);
        assert_eq!(
            tl.to_chrome_json(&[]),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
        );
    }

    #[test]
    fn clone_gives_fresh_buffer_on_same_collector() {
        let tc = TraceCollector::new(1, 8);
        let mut a = tc.recorder(1);
        let id = a.maybe_mint().unwrap();
        a.record(id, SpanKind::SliceCreated);
        let mut b = a.clone();
        let id2 = b.maybe_mint().unwrap();
        assert_ne!(id, id2, "clone shares the mint sequence");
        b.record(id2, SpanKind::SliceCreated);
        drop(a);
        drop(b);
        assert_eq!(tc.drain_timeline().chains.len(), 2);
    }
}
