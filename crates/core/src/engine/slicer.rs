//! The stream slicer (paper Section 4.1).
//!
//! One [`GroupSlicer`] drives one query-group. It cuts the event stream
//! into slices at every punctuation of every member window, performs
//! incremental per-event aggregation into the shared operator bundles of
//! the current slice, and annotates each sealed slice with the window end
//! punctuations (`ep`s) that terminate at it.
//!
//! Fixed-size time windows have their punctuations computed *in advance*:
//! the slicer caches the next punctuation time and compares each event
//! against it with a single branch (this is why Desis' throughput is flat
//! in the number of concurrent windows, Figure 6b). Session windows,
//! user-defined windows, and count-measured windows contribute data-driven
//! punctuations.

use std::collections::VecDeque;

use crate::aggregate::OperatorBundle;
use crate::engine::group::QueryGroup;
use crate::engine::slice::{SealedSlice, SessionGap, SliceData, SliceId, WindowEnd};
use crate::event::{Event, MarkerChannel, MarkerKind};
use crate::metrics::EngineMetrics;
use crate::obs::trace::{SpanKind, TraceId, TraceRecorder};
use crate::time::{DurationMs, Timestamp};
use crate::window::{WindowKind, WindowSpec};

/// An active window instance of a fixed-size (time- or count-measured)
/// window query.
#[derive(Debug, Clone)]
struct Instance {
    /// Window start in the punctuation domain (ms for time, events for
    /// count).
    start_punct: u64,
    /// Window start in event time (informational).
    start_ts: Timestamp,
    /// First slice of the window.
    first_slice: SliceId,
}

/// An open session of a session-window query.
#[derive(Debug, Clone)]
struct OpenSession {
    first_ts: Timestamp,
    last_ts: Timestamp,
    first_slice: SliceId,
}

impl OpenSession {
    /// When the session's gap elapses, saturating at `Timestamp::MAX` so
    /// that a watermark there still closes the session.
    fn gap_end(&self, gap: DurationMs) -> Timestamp {
        self.last_ts.saturating_add(gap)
    }
}

/// Per-session-query state.
#[derive(Debug, Clone)]
struct SessionSlot {
    query_idx: usize,
    gap: DurationMs,
    open: Option<OpenSession>,
}

/// An open user-defined window.
#[derive(Debug, Clone)]
struct OpenUd {
    start_ts: Timestamp,
    first_slice: SliceId,
}

/// Per-user-defined-query state.
#[derive(Debug, Clone)]
struct UdSlot {
    query_idx: usize,
    channel: MarkerChannel,
    open: Option<OpenUd>,
}

/// Per-count-query state: its own matched-event counter and instances.
#[derive(Debug, Clone)]
struct CountSlot {
    query_idx: usize,
    spec: WindowSpec,
    /// Events matched by this query's selection so far.
    count: u64,
    /// Next punctuation in the count domain.
    next_punct: u64,
    instances: VecDeque<Instance>,
}

/// Slicer for one query-group.
#[derive(Debug, Clone)]
pub struct GroupSlicer {
    group: QueryGroup,
    /// Deduplicated fixed time-measured specs (punctuation sources).
    fixed_specs: Vec<WindowSpec>,
    /// Indices of time-measured fixed-window queries.
    fixed_queries: Vec<usize>,
    /// Active instances, indexed by query index (empty for non-fixed).
    fixed_instances: Vec<VecDeque<Instance>>,
    /// Cached earliest upcoming fixed-time punctuation.
    next_time_punct: Option<Timestamp>,
    sessions: Vec<SessionSlot>,
    uds: Vec<UdSlot>,
    counts: Vec<CountSlot>,
    slice_seq: SliceId,
    cur_start: Timestamp,
    cur_events: u64,
    cur_data: SliceData,
    initialized: bool,
    last_seen_ts: Timestamp,
    metrics: EngineMetrics,
    /// Per-query-index draining flag (Section 3.2): a draining query opens
    /// no new windows but its in-flight windows still complete.
    draining: Vec<bool>,
    /// Provenance span recorder; `None` (the default) disables tracing.
    /// Boxed so the disabled hot path is a null check and the slicer's
    /// layout stays compact.
    tracer: Option<Box<TracerState>>,
}

/// Tracing state, kept behind one pointer in [`GroupSlicer`].
#[derive(Debug, Clone)]
struct TracerState {
    recorder: TraceRecorder,
    /// Trace id of the slice currently accumulating, minted (subject to
    /// sampling) at its first event.
    cur_trace: Option<TraceId>,
}

impl GroupSlicer {
    /// Creates a slicer for `group`.
    pub fn new(group: QueryGroup) -> Self {
        let fixed_specs = group.fixed_time_specs();
        let fixed_queries = group.fixed_time_queries();
        let fixed_instances = vec![VecDeque::new(); group.queries.len()];
        let sessions = group
            .session_queries()
            .into_iter()
            .map(|(query_idx, gap)| SessionSlot {
                query_idx,
                gap,
                open: None,
            })
            .collect();
        let uds = group
            .user_defined_queries()
            .into_iter()
            .map(|(query_idx, channel)| UdSlot {
                query_idx,
                channel,
                open: None,
            })
            .collect();
        let counts = group
            .count_queries()
            .into_iter()
            .map(|(query_idx, spec)| CountSlot {
                query_idx,
                spec,
                count: 0,
                // A validated count spec always has punctuations; if one
                // somehow does not, the slot simply never seals.
                next_punct: spec.next_count_punct_after(0).unwrap_or(u64::MAX),
                instances: VecDeque::new(),
            })
            .collect();
        let selections = group.selections.len();
        let draining = vec![false; group.queries.len()];
        Self {
            group,
            fixed_specs,
            fixed_queries,
            fixed_instances,
            next_time_punct: None,
            sessions,
            uds,
            counts,
            slice_seq: 0,
            cur_start: 0,
            cur_events: 0,
            cur_data: SliceData::new(selections),
            initialized: false,
            last_seen_ts: 0,
            metrics: EngineMetrics::default(),
            draining,
            tracer: None,
        }
    }

    /// Enables causal slice tracing: slices sampled by the recorder's
    /// collector are minted a [`TraceId`] at creation and record
    /// `SliceCreated`/`SliceSealed` spans.
    pub fn set_recorder(&mut self, recorder: TraceRecorder) {
        self.tracer = Some(Box::new(TracerState {
            recorder,
            cur_trace: None,
        }));
    }

    /// Mints a trace id for the slice opening at this event. Out of line:
    /// only reached when tracing is enabled and a slice begins.
    #[cold]
    #[inline(never)]
    fn mint_trace(&mut self) {
        if let Some(t) = &mut self.tracer {
            if let Some(id) = t.recorder.maybe_mint() {
                t.recorder.record(id, SpanKind::SliceCreated);
                t.cur_trace = Some(id);
            }
        }
    }

    /// Removes a member query at runtime (Section 3.2). Returns `false` if
    /// the query is not (or no longer) part of this group.
    ///
    /// With `immediate`, the query's open windows are dropped on the spot;
    /// otherwise the query drains: it opens no new windows, but in-flight
    /// windows still terminate normally.
    pub fn remove_query(&mut self, id: crate::query::QueryId, immediate: bool) -> bool {
        let Some(idx) = self.group.query_index(id) else {
            return false;
        };
        let tracked = self.fixed_queries.contains(&idx)
            || self.sessions.iter().any(|s| s.query_idx == idx)
            || self.uds.iter().any(|s| s.query_idx == idx)
            || self.counts.iter().any(|s| s.query_idx == idx);
        if !tracked {
            return false;
        }
        if immediate {
            self.fixed_queries.retain(|&qi| qi != idx);
            self.fixed_instances[idx].clear();
            self.sessions.retain(|s| s.query_idx != idx);
            self.uds.retain(|s| s.query_idx != idx);
            self.counts.retain(|s| s.query_idx != idx);
        } else {
            self.draining[idx] = true;
            // Slots with nothing in flight are done already.
            self.sessions
                .retain(|s| s.query_idx != idx || s.open.is_some());
            self.uds.retain(|s| s.query_idx != idx || s.open.is_some());
            self.counts
                .retain(|s| s.query_idx != idx || !s.instances.is_empty());
            if self.fixed_instances[idx].is_empty() {
                self.fixed_queries.retain(|&qi| qi != idx);
            }
        }
        self.recompute_fixed_specs();
        true
    }

    /// Rebuilds the fixed-spec punctuation sources after query removal.
    fn recompute_fixed_specs(&mut self) {
        let mut specs: Vec<WindowSpec> = Vec::new();
        for &qi in &self.fixed_queries {
            let w = self.group.queries[qi].query.window;
            if !specs.contains(&w) {
                specs.push(w);
            }
        }
        self.fixed_specs = specs;
        if self.initialized {
            self.next_time_punct = self
                .fixed_specs
                .iter()
                .filter_map(|s| s.next_time_punct_after(self.last_seen_ts))
                .min();
        }
    }

    /// The group this slicer runs.
    pub fn group(&self) -> &QueryGroup {
        &self.group
    }

    /// Metrics snapshot.
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// Lazily aligns window instances to the first event of the stream.
    fn init(&mut self, first_ts: Timestamp) {
        self.cur_start = first_ts;
        self.last_seen_ts = first_ts;
        for &qi in &self.fixed_queries {
            let spec = self.group.queries[qi].query.window;
            match spec.kind {
                WindowKind::Tumbling { length } => {
                    let aligned = first_ts / length * length;
                    self.fixed_instances[qi].push_back(Instance {
                        start_punct: aligned,
                        start_ts: aligned,
                        first_slice: self.slice_seq,
                    });
                }
                WindowKind::Sliding { length, step } => {
                    // All windows [k*step, k*step + length) covering first_ts.
                    let k_min = if first_ts < length {
                        0
                    } else {
                        (first_ts - length) / step + 1
                    };
                    let k_max = first_ts / step;
                    for k in k_min..=k_max {
                        self.fixed_instances[qi].push_back(Instance {
                            start_punct: k * step,
                            start_ts: k * step,
                            first_slice: self.slice_seq,
                        });
                    }
                }
                // `fixed_queries` is built to hold only tumbling/sliding;
                // anything else opens no instance.
                _ => {}
            }
        }
        for slot in &mut self.counts {
            // The first count window begins with the first matched event.
            // Count windows report window_start/window_end in the count
            // domain (matched-event offsets), since their event-time
            // extent depends on data arrival.
            slot.instances.push_back(Instance {
                start_punct: 0,
                start_ts: 0,
                first_slice: self.slice_seq,
            });
        }
        self.next_time_punct = self
            .fixed_specs
            .iter()
            .filter_map(|s| s.next_time_punct_after(first_ts))
            .min();
        self.initialized = true;
    }

    /// Ingests one event. Sealed slices (if any punctuation fired) are
    /// appended to `out`.
    ///
    /// Events must arrive in non-decreasing timestamp order per slicer;
    /// this matches the paper's generators and is asserted in debug
    /// builds.
    pub fn on_event(&mut self, ev: &Event, out: &mut Vec<SealedSlice>) {
        if !self.initialized {
            self.init(ev.ts);
        }
        debug_assert!(
            ev.ts >= self.last_seen_ts,
            "out-of-order event: {} < {}",
            ev.ts,
            self.last_seen_ts
        );
        self.last_seen_ts = ev.ts;

        // Fast path: no marker to interpret, no session/user-defined/count
        // bookkeeping to scan, and no time punctuation due — the event
        // only feeds incremental aggregation. Keeping this block small
        // (steps 1–3 and 5 are all no-ops under these conditions) keeps
        // the per-event footprint inside the front-end's sweet spot.
        if ev.marker.is_none()
            && self.sessions.is_empty()
            && self.uds.is_empty()
            && self.counts.is_empty()
            && self.next_time_punct.is_none_or(|p| p > ev.ts)
        {
            self.aggregate(ev);
            return;
        }

        // 1. Fire every time-domain punctuation at or before this event.
        self.fire_time_puncts(ev.ts, out);

        // 2. A start marker opens user-defined windows *from this event*:
        //    the slice boundary lies just before it.
        if let Some(marker) = ev.marker {
            if marker.kind == MarkerKind::Start
                && self
                    .uds
                    .iter()
                    .any(|u| u.channel == marker.channel && u.open.is_none())
            {
                self.seal_boundary(ev.ts, out);
                for slot in &mut self.uds {
                    if slot.channel == marker.channel && slot.open.is_none() {
                        slot.open = Some(OpenUd {
                            start_ts: ev.ts,
                            first_slice: self.slice_seq,
                        });
                    }
                }
            }
        }

        // 3. Open or extend sessions whose selection matches.
        for slot in &mut self.sessions {
            let sel = self.group.queries[slot.query_idx].selection as usize;
            if self.group.selections[sel].predicate.matches(ev) {
                match &mut slot.open {
                    Some(open) => open.last_ts = ev.ts,
                    None => {
                        slot.open = Some(OpenSession {
                            first_ts: ev.ts,
                            last_ts: ev.ts,
                            first_slice: self.slice_seq,
                        })
                    }
                }
            }
        }

        // 4. Incremental aggregation: each selection evaluated once, each
        //    operator of the selection executed once.
        self.aggregate(ev);

        // 5. Count-domain punctuations (boundary lies just after this
        //    event) and end markers (this event is the window's last).
        let mut needs_seal = false;
        for slot in &mut self.counts {
            let sel = self.group.queries[slot.query_idx].selection as usize;
            if self.group.selections[sel].predicate.matches(ev) {
                slot.count += 1;
                if slot.count == slot.next_punct {
                    needs_seal = true;
                }
            }
        }
        let ud_end = match ev.marker {
            Some(marker) if marker.kind == MarkerKind::End => self
                .uds
                .iter()
                .any(|u| u.channel == marker.channel && u.open.is_some()),
            _ => false,
        };
        if needs_seal || ud_end {
            self.seal_data_boundary(ev, out);
        }
    }

    /// Incremental aggregation for one event: each selection evaluated
    /// once, each operator of the matching selections executed once. The
    /// first event of a slice mints its trace id (when tracing is on).
    #[inline]
    fn aggregate(&mut self, ev: &Event) {
        if self.cur_events == 0 && self.tracer.is_some() {
            self.mint_trace();
        }
        self.cur_events += 1;
        self.metrics.events += 1;
        for (sel_idx, sel) in self.group.selections.iter().enumerate() {
            if sel.predicate.matches(ev) {
                let bundle = self.cur_data.per_selection[sel_idx]
                    .entry(ev.key)
                    .or_insert_with(|| OperatorBundle::new(sel.operators));
                self.metrics.calculations += bundle.update(ev.value);
            }
        }
    }

    /// Processes a marker event that belongs to another key partition:
    /// only its *boundary* effects apply — user-defined windows on the
    /// marker's channel open/close and the slice is sealed at the marker
    /// position — while the event's value is neither aggregated nor does
    /// it open/extend sessions (the owning partition does that). This is
    /// how a key-sharded engine keeps every shard's slice boundaries
    /// aligned with the global marker sequence.
    pub fn on_marker(&mut self, ev: &Event, out: &mut Vec<SealedSlice>) {
        let Some(marker) = ev.marker else { return };
        if !self.uds.iter().any(|u| u.channel == marker.channel) {
            return;
        }
        if !self.initialized {
            self.init(ev.ts);
        }
        debug_assert!(ev.ts >= self.last_seen_ts, "out-of-order marker");
        self.last_seen_ts = ev.ts;
        self.fire_time_puncts(ev.ts, out);
        match marker.kind {
            MarkerKind::Start => {
                if self
                    .uds
                    .iter()
                    .any(|u| u.channel == marker.channel && u.open.is_none())
                {
                    self.seal_boundary(ev.ts, out);
                    for slot in &mut self.uds {
                        if slot.channel == marker.channel && slot.open.is_none() {
                            slot.open = Some(OpenUd {
                                start_ts: ev.ts,
                                first_slice: self.slice_seq,
                            });
                        }
                    }
                }
            }
            MarkerKind::End => {
                if self
                    .uds
                    .iter()
                    .any(|u| u.channel == marker.channel && u.open.is_some())
                {
                    self.seal_data_boundary(ev, out);
                }
            }
        }
    }

    /// Per-session-query *clear frontiers*: for each session query (by
    /// query index), the earliest timestamp at which a session fragment
    /// this slicer has not yet sealed could still start. An open session
    /// reports its own start; otherwise no future fragment can begin
    /// before `max(last seen event time, floor)` — pass the watermark as
    /// `floor` (idle slicers have seen nothing but are still covered by
    /// it), or `Timestamp::MAX` at end of stream.
    pub fn unfixed_clears(&self, floor: Timestamp) -> Vec<(usize, Timestamp)> {
        let idle = if self.initialized {
            self.last_seen_ts.max(floor)
        } else {
            floor
        };
        self.sessions
            .iter()
            .map(|slot| {
                let clear = match &slot.open {
                    Some(open) => open.first_ts,
                    None => idle,
                };
                (slot.query_idx, clear)
            })
            .collect()
    }

    /// Advances event time without data: fires pending time punctuations
    /// and closes sessions whose gap has elapsed by `ts` (Section 5.1.2
    /// watermarks).
    pub fn on_watermark(&mut self, ts: Timestamp, out: &mut Vec<SealedSlice>) {
        if !self.initialized {
            return;
        }
        if ts < self.last_seen_ts {
            return;
        }
        self.last_seen_ts = ts;
        self.fire_time_puncts(ts, out);
    }

    /// The earliest pending time punctuation: the next fixed-window
    /// boundary or the gap end of an open session, whichever comes first —
    /// the first instant at which [`GroupSlicer::on_watermark`] seals
    /// something. `None` before the first event, and for a group whose
    /// boundaries are all data-driven (count and user-defined windows).
    #[inline]
    pub fn next_punctuation(&self) -> Option<Timestamp> {
        let mut next = self.next_time_punct;
        for slot in &self.sessions {
            if let Some(open) = &slot.open {
                let gap_end = open.gap_end(slot.gap);
                next = Some(next.map_or(gap_end, |t| t.min(gap_end)));
            }
        }
        next
    }

    /// Force-seals the current slice (node shutdown / end of measurement)
    /// without terminating any window.
    pub fn flush(&mut self, out: &mut Vec<SealedSlice>) {
        if !self.initialized {
            return;
        }
        let end = self.last_seen_ts.max(self.cur_start);
        self.seal_boundary(end, out);
    }

    /// Fires all fixed-time and session punctuations `<= up_to`, in
    /// timestamp order, sealing one slice per distinct punctuation time.
    #[inline]
    fn fire_time_puncts(&mut self, up_to: Timestamp, out: &mut Vec<SealedSlice>) {
        while let Some(t) = self.next_punctuation().filter(|t| *t <= up_to) {
            self.seal_time_boundary(t, out);
        }
    }

    /// Seals the current slice at time punctuation `t` and processes every
    /// window transition (fixed-window ends/starts, session ends) at `t`.
    fn seal_time_boundary(&mut self, t: Timestamp, out: &mut Vec<SealedSlice>) {
        let degenerate = t == self.cur_start && self.cur_events == 0;
        let sealed_last = if degenerate {
            self.slice_seq.saturating_sub(1)
        } else {
            self.slice_seq
        };

        let mut ends = Vec::new();
        let mut gaps = Vec::new();
        let mut drained_fixed = false;

        // Fixed-window end punctuations at t.
        for &qi in &self.fixed_queries {
            let cq = &self.group.queries[qi];
            if let Some(ws) = cq.query.window.fixed_window_ending_at(t) {
                if let Some(inst) = self.fixed_instances[qi].pop_front() {
                    debug_assert_eq!(inst.start_punct, ws, "window end out of order");
                    ends.push(WindowEnd {
                        query: cq.query.id,
                        first_slice: inst.first_slice,
                        last_slice: sealed_last,
                        start_ts: inst.start_ts,
                        end_ts: t,
                    });
                    if self.draining[qi] && self.fixed_instances[qi].is_empty() {
                        drained_fixed = true;
                    }
                }
            }
        }

        // Session gap ends at t.
        let mut drained_session = false;
        for slot in &mut self.sessions {
            if let Some(open) = slot.open.take_if(|open| open.gap_end(slot.gap) == t) {
                let query = self.group.queries[slot.query_idx].query.id;
                ends.push(WindowEnd {
                    query,
                    first_slice: open.first_slice,
                    last_slice: sealed_last,
                    start_ts: open.first_ts,
                    end_ts: t,
                });
                gaps.push(SessionGap {
                    query,
                    gap_start: open.last_ts,
                    gap_end: t,
                });
                if self.draining[slot.query_idx] {
                    drained_session = true;
                }
            }
        }
        if drained_session {
            let draining = &self.draining;
            self.sessions
                .retain(|s| !(draining[s.query_idx] && s.open.is_none()));
        }

        debug_assert!(
            !degenerate || self.slice_seq > 0 || ends.is_empty(),
            "window ends before any slice exists"
        );

        self.emit_slice(t, degenerate, ends, gaps, out);

        // Fixed-window start punctuations at t (first slice is the new
        // current slice). Draining queries open no new windows.
        for &qi in &self.fixed_queries {
            if self.draining[qi] {
                continue;
            }
            let cq = &self.group.queries[qi];
            if cq.query.window.fixed_window_starting_at(t) {
                self.fixed_instances[qi].push_back(Instance {
                    start_punct: t,
                    start_ts: t,
                    first_slice: self.slice_seq,
                });
            }
        }

        if drained_fixed {
            let (instances, draining) = (&self.fixed_instances, &self.draining);
            self.fixed_queries
                .retain(|&qi| !(draining[qi] && instances[qi].is_empty()));
            self.recompute_fixed_specs();
        }
        self.next_time_punct = self
            .fixed_specs
            .iter()
            .filter_map(|s| s.next_time_punct_after(t))
            .min();
    }

    /// Seals at a data-driven boundary just *after* the current event:
    /// count-window punctuations and user-defined end markers.
    fn seal_data_boundary(&mut self, ev: &Event, out: &mut Vec<SealedSlice>) {
        let sealed_last = self.slice_seq; // current slice has >= 1 event
        let mut ends = Vec::new();

        // Count-window transitions.
        let mut pending_starts: Vec<(usize, u64)> = Vec::new();
        for (slot_idx, slot) in self.counts.iter_mut().enumerate() {
            if slot.count != slot.next_punct {
                continue;
            }
            let n = slot.count;
            let cq = &self.group.queries[slot.query_idx];
            if let Some(ws) = slot.spec.fixed_window_ending_at(n) {
                if let Some(inst) = slot.instances.pop_front() {
                    debug_assert_eq!(inst.start_punct, ws, "count window end out of order");
                    ends.push(WindowEnd {
                        query: cq.query.id,
                        first_slice: inst.first_slice,
                        last_slice: sealed_last,
                        // Count windows report their extent in the count
                        // domain.
                        start_ts: inst.start_ts,
                        end_ts: n,
                    });
                }
            }
            if slot.spec.fixed_window_starting_at(n) && !self.draining[slot.query_idx] {
                pending_starts.push((slot_idx, n));
            }
            // See `CountSlot` construction: a spec with no further
            // punctuation simply never seals again.
            slot.next_punct = slot.spec.next_count_punct_after(n).unwrap_or(u64::MAX);
        }

        // User-defined window ends (this event is the last of the window).
        let mut drained_ud = false;
        if let Some(marker) = ev.marker {
            if marker.kind == MarkerKind::End {
                for slot in &mut self.uds {
                    if slot.channel == marker.channel {
                        if let Some(open) = slot.open.take() {
                            ends.push(WindowEnd {
                                query: self.group.queries[slot.query_idx].query.id,
                                first_slice: open.first_slice,
                                last_slice: sealed_last,
                                start_ts: open.start_ts,
                                end_ts: ev.ts,
                            });
                            if self.draining[slot.query_idx] {
                                drained_ud = true;
                            }
                        }
                    }
                }
            }
        }
        if drained_ud {
            let draining = &self.draining;
            self.uds
                .retain(|s| !(draining[s.query_idx] && s.open.is_none()));
        }

        self.emit_slice(ev.ts, false, ends, Vec::new(), out);

        for (slot_idx, n) in pending_starts {
            let slot = &mut self.counts[slot_idx];
            slot.instances.push_back(Instance {
                start_punct: n,
                start_ts: n,
                first_slice: self.slice_seq,
            });
        }
        let draining = &self.draining;
        self.counts
            .retain(|s| !(draining[s.query_idx] && s.instances.is_empty()));
    }

    /// Seals the current slice at `end_ts` with no window transitions
    /// (start-marker boundaries, flush).
    fn seal_boundary(&mut self, end_ts: Timestamp, out: &mut Vec<SealedSlice>) {
        let degenerate = end_ts == self.cur_start && self.cur_events == 0;
        self.emit_slice(end_ts, degenerate, Vec::new(), Vec::new(), out);
    }

    /// Builds and emits the sealed slice (unless degenerate and
    /// annotation-free), then resets the current slice.
    fn emit_slice(
        &mut self,
        end_ts: Timestamp,
        degenerate: bool,
        ends: Vec<WindowEnd>,
        gaps: Vec<SessionGap>,
        out: &mut Vec<SealedSlice>,
    ) {
        if degenerate && ends.is_empty() && gaps.is_empty() {
            self.cur_start = end_ts;
            return;
        }
        let selections = self.group.selections.len();
        let mut data = std::mem::replace(&mut self.cur_data, SliceData::new(selections));
        data.seal();
        let id = self.slice_seq;
        self.slice_seq += 1;
        self.metrics.slices += 1;
        self.metrics.windows_closed += ends.len() as u64;
        let start_ts = self.cur_start;
        self.cur_start = end_ts;
        self.cur_events = 0;
        let low_watermark = self.low_watermark();
        let low_watermark_ts = self.low_watermark_ts(end_ts);
        let mut trace = None;
        if let Some(t) = &mut self.tracer {
            trace = t.cur_trace.take();
            if let Some(id) = trace {
                t.recorder.record(id, SpanKind::SliceSealed);
            }
        }
        out.push(SealedSlice {
            id,
            start_ts,
            end_ts,
            data,
            ends,
            session_gaps: gaps,
            low_watermark,
            low_watermark_ts,
            trace,
        });
    }

    /// Smallest slice id still referenced by an active window (current
    /// slice id if none).
    fn low_watermark(&self) -> SliceId {
        let mut low = self.slice_seq;
        for deque in &self.fixed_instances {
            if let Some(inst) = deque.front() {
                low = low.min(inst.first_slice);
            }
        }
        for slot in &self.sessions {
            if let Some(open) = &slot.open {
                low = low.min(open.first_slice);
            }
        }
        for slot in &self.uds {
            if let Some(open) = &slot.open {
                low = low.min(open.first_slice);
            }
        }
        for slot in &self.counts {
            if let Some(inst) = slot.instances.front() {
                low = low.min(inst.first_slice);
            }
        }
        low
    }

    /// Earliest event-time window start still active (`fallback` if none).
    /// Count-window instances are excluded: their extent is data-dependent
    /// and count groups are never aggregated decentrally (Section 5.2).
    fn low_watermark_ts(&self, fallback: Timestamp) -> Timestamp {
        let mut low = fallback;
        for deque in &self.fixed_instances {
            if let Some(inst) = deque.front() {
                low = low.min(inst.start_ts);
            }
        }
        for slot in &self.sessions {
            if let Some(open) = &slot.open {
                low = low.min(open.first_ts);
            }
        }
        for slot in &self.uds {
            if let Some(open) = &slot.open {
                low = low.min(open.start_ts);
            }
        }
        low
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggFunction;
    use crate::engine::analyzer::QueryAnalyzer;
    use crate::event::Marker;
    use crate::predicate::Predicate;
    use crate::query::Query;

    fn slicer_for(queries: Vec<Query>) -> GroupSlicer {
        let mut groups = QueryAnalyzer::default().analyze(queries).unwrap();
        assert_eq!(groups.len(), 1, "test queries must form one group");
        GroupSlicer::new(groups.remove(0))
    }

    fn feed(slicer: &mut GroupSlicer, events: &[(Timestamp, f64)]) -> Vec<SealedSlice> {
        let mut out = Vec::new();
        for &(ts, v) in events {
            slicer.on_event(&Event::new(ts, 0, v), &mut out);
        }
        out
    }

    #[test]
    fn tumbling_seals_at_multiples() {
        let q = Query::new(1, WindowSpec::tumbling_time(100).unwrap(), AggFunction::Sum);
        let mut s = slicer_for(vec![q]);
        let out = feed(&mut s, &[(0, 1.0), (50, 2.0), (100, 3.0), (250, 4.0)]);
        // punct at 100 (slice [0,100)), then puncts at 200 (slice [100,200))
        // fired by the event at 250.
        assert_eq!(out.len(), 2);
        assert_eq!((out[0].start_ts, out[0].end_ts), (0, 100));
        assert_eq!((out[1].start_ts, out[1].end_ts), (100, 200));
        assert_eq!(out[0].ends.len(), 1);
        assert_eq!(out[0].ends[0].query, 1);
        assert_eq!(out[0].ends[0].first_slice, 0);
        assert_eq!(out[0].ends[0].last_slice, 0);
        assert_eq!(out[1].ends[0].first_slice, 1);
    }

    #[test]
    fn watermark_flushes_pending_windows() {
        let q = Query::new(1, WindowSpec::tumbling_time(100).unwrap(), AggFunction::Sum);
        let mut s = slicer_for(vec![q]);
        let mut out = feed(&mut s, &[(0, 1.0), (50, 2.0)]);
        assert!(out.is_empty());
        s.on_watermark(100, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].ends.len(), 1);
    }

    #[test]
    fn sliding_windows_overlap_and_share_slices() {
        // length 100, step 50: each slice belongs to two windows.
        let q = Query::new(
            1,
            WindowSpec::sliding_time(100, 50).unwrap(),
            AggFunction::Sum,
        );
        let mut s = slicer_for(vec![q]);
        let mut out = feed(&mut s, &[(0, 1.0), (60, 2.0), (120, 3.0)]);
        s.on_watermark(200, &mut out);
        // Puncts at 50, 100, 150, 200.
        assert_eq!(out.len(), 4);
        // Window [0,100) ends at punct 100 covering slices 0..=1.
        let w0 = out
            .iter()
            .flat_map(|s| &s.ends)
            .find(|e| e.start_ts == 0)
            .unwrap();
        assert_eq!((w0.first_slice, w0.last_slice), (0, 1));
        // Window [50,150) covers slices 1..=2.
        let w1 = out
            .iter()
            .flat_map(|s| &s.ends)
            .find(|e| e.start_ts == 50)
            .unwrap();
        assert_eq!((w1.first_slice, w1.last_slice), (1, 2));
    }

    #[test]
    fn multiple_specs_slice_at_union_of_puncts() {
        let qs = vec![
            Query::new(1, WindowSpec::tumbling_time(100).unwrap(), AggFunction::Sum),
            Query::new(
                2,
                WindowSpec::tumbling_time(150).unwrap(),
                AggFunction::Count,
            ),
        ];
        let mut s = slicer_for(qs);
        let mut out = Vec::new();
        for ts in (0..=300).step_by(10) {
            s.on_event(&Event::new(ts, 0, 1.0), &mut out);
        }
        // Puncts at 100, 150, 200, 300 (300 fires when event at 300 arrives).
        let boundaries: Vec<_> = out.iter().map(|s| s.end_ts).collect();
        assert_eq!(boundaries, vec![100, 150, 200, 300]);
        // At 300 both windows end.
        assert_eq!(out[3].ends.len(), 2);
    }

    #[test]
    fn session_window_closes_after_gap() {
        let q = Query::new(1, WindowSpec::session(100).unwrap(), AggFunction::Sum);
        let mut s = slicer_for(vec![q]);
        let out = feed(&mut s, &[(0, 1.0), (50, 2.0), (200, 3.0)]);
        // Gap after 50: session [0, 150) sealed when event at 200 arrives.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].end_ts, 150);
        assert_eq!(out[0].ends.len(), 1);
        assert_eq!(out[0].ends[0].start_ts, 0);
        assert_eq!(out[0].ends[0].end_ts, 150);
        assert_eq!(out[0].session_gaps.len(), 1);
        assert_eq!(out[0].session_gaps[0].gap_start, 50);
        assert_eq!(out[0].session_gaps[0].gap_end, 150);
    }

    #[test]
    fn session_reopens_for_second_burst() {
        let q = Query::new(1, WindowSpec::session(100).unwrap(), AggFunction::Sum);
        let mut s = slicer_for(vec![q]);
        let mut out = feed(&mut s, &[(0, 1.0), (300, 2.0), (350, 3.0)]);
        s.on_watermark(1000, &mut out);
        let ends: Vec<_> = out.iter().flat_map(|s| &s.ends).collect();
        assert_eq!(ends.len(), 2);
        assert_eq!((ends[0].start_ts, ends[0].end_ts), (0, 100));
        assert_eq!((ends[1].start_ts, ends[1].end_ts), (300, 450));
    }

    #[test]
    fn user_defined_window_via_markers() {
        let q = Query::new(1, WindowSpec::user_defined(5), AggFunction::Max);
        let mut s = slicer_for(vec![q]);
        let mut out = Vec::new();
        s.on_event(&Event::new(0, 0, 1.0), &mut out); // outside any window
        s.on_event(
            &Event::with_marker(
                10,
                0,
                2.0,
                Marker {
                    channel: 5,
                    kind: MarkerKind::Start,
                },
            ),
            &mut out,
        );
        s.on_event(&Event::new(20, 0, 9.0), &mut out);
        s.on_event(
            &Event::with_marker(
                30,
                0,
                3.0,
                Marker {
                    channel: 5,
                    kind: MarkerKind::End,
                },
            ),
            &mut out,
        );
        // Boundary before start marker seals pre-window slice; end marker
        // seals the window slice with an ep.
        assert_eq!(out.len(), 2);
        assert!(out[0].ends.is_empty());
        assert_eq!(out[1].ends.len(), 1);
        assert_eq!(out[1].ends[0].start_ts, 10);
        assert_eq!(out[1].ends[0].end_ts, 30);
        assert_eq!(out[1].ends[0].first_slice, 1);
        assert_eq!(out[1].ends[0].last_slice, 1);
    }

    #[test]
    fn marker_on_other_channel_is_ignored() {
        let q = Query::new(1, WindowSpec::user_defined(5), AggFunction::Max);
        let mut s = slicer_for(vec![q]);
        let mut out = Vec::new();
        s.on_event(
            &Event::with_marker(
                10,
                0,
                2.0,
                Marker {
                    channel: 9,
                    kind: MarkerKind::Start,
                },
            ),
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn count_tumbling_seals_every_n_events() {
        let q = Query::new(1, WindowSpec::tumbling_count(3).unwrap(), AggFunction::Sum);
        let mut s = slicer_for(vec![q]);
        let out = feed(
            &mut s,
            &[(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0), (4, 5.0), (5, 6.0)],
        );
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].ends.len(), 1);
        assert_eq!(out[0].ends[0].first_slice, 0);
        assert_eq!(out[0].ends[0].last_slice, 0);
        assert_eq!(out[1].ends[0].first_slice, 1);
        assert_eq!(out[1].ends[0].last_slice, 1);
    }

    #[test]
    fn count_window_counts_only_matching_events() {
        let q = Query::new(1, WindowSpec::tumbling_count(2).unwrap(), AggFunction::Sum)
            .filtered(Predicate::KeyEquals(1));
        let mut groups = QueryAnalyzer::default().analyze(vec![q]).unwrap();
        let mut s = GroupSlicer::new(groups.remove(0));
        let mut out = Vec::new();
        for (ts, key) in [(0, 1), (1, 2), (2, 2), (3, 1), (4, 1), (5, 1)] {
            s.on_event(&Event::new(ts, key, 1.0), &mut out);
        }
        // Matching events at ts 0, 3, 4, 5 -> windows end after ts=3 and ts=5.
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].end_ts, 3);
        assert_eq!(out[1].end_ts, 5);
    }

    #[test]
    fn mixed_time_and_count_in_one_group() {
        let qs = vec![
            Query::new(1, WindowSpec::tumbling_time(100).unwrap(), AggFunction::Sum),
            Query::new(2, WindowSpec::tumbling_count(2).unwrap(), AggFunction::Sum),
        ];
        let mut s = slicer_for(qs);
        let out = feed(&mut s, &[(0, 1.0), (10, 2.0), (110, 3.0)]);
        // count punct after 2nd event (ts 10), time punct at 100.
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].end_ts, 10);
        assert_eq!(out[0].ends[0].query, 2);
        assert_eq!(out[1].end_ts, 100);
        assert_eq!(out[1].ends[0].query, 1);
        // Time window 1 covers slices 0..=1.
        assert_eq!(out[1].ends[0].first_slice, 0);
        assert_eq!(out[1].ends[0].last_slice, 1);
    }

    #[test]
    fn late_stream_start_aligns_instances() {
        let q = Query::new(1, WindowSpec::tumbling_time(100).unwrap(), AggFunction::Sum);
        let mut s = slicer_for(vec![q]);
        let mut out = feed(&mut s, &[(1234, 1.0)]);
        s.on_watermark(1300, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].ends[0].start_ts, 1200);
        assert_eq!(out[0].ends[0].end_ts, 1300);
    }

    #[test]
    fn slice_count_matches_punct_union() {
        // Windows of 1..=10 time units produce puncts at every multiple of
        // 1 unit: 60 slices per 60 units (paper: 61 slices/minute for
        // 1..10 s windows, including the boundary slice).
        let qs: Vec<Query> = (1..=10)
            .map(|l| {
                Query::new(
                    l,
                    WindowSpec::tumbling_time(l * 10).unwrap(),
                    AggFunction::Sum,
                )
            })
            .collect();
        let mut s = slicer_for(qs);
        let mut out = Vec::new();
        for ts in 0..=600 {
            s.on_event(&Event::new(ts, 0, 1.0), &mut out);
        }
        // Puncts at multiples of 10 from 10 to 600.
        assert_eq!(out.len(), 60);
        assert_eq!(s.metrics().slices, 60);
    }

    #[test]
    fn low_watermark_tracks_oldest_active_window() {
        let qs = vec![
            Query::new(1, WindowSpec::tumbling_time(100).unwrap(), AggFunction::Sum),
            Query::new(
                2,
                WindowSpec::tumbling_time(1000).unwrap(),
                AggFunction::Sum,
            ),
        ];
        let mut s = slicer_for(qs);
        let mut out = Vec::new();
        for ts in (0..950).step_by(10) {
            s.on_event(&Event::new(ts, 0, 1.0), &mut out);
        }
        // The 1000-long window still needs slice 0.
        assert!(out.iter().all(|sl| sl.low_watermark == 0));
        s.on_watermark(1000, &mut out);
        let last = out.last().unwrap();
        // After both windows closed at 1000, nothing older is needed.
        assert_eq!(last.low_watermark, last.id + 1);
    }

    #[test]
    fn degenerate_empty_boundary_does_not_emit() {
        let q = Query::new(1, WindowSpec::user_defined(1), AggFunction::Sum);
        let mut s = slicer_for(vec![q]);
        let mut out = Vec::new();
        // Start marker as very first event: nothing before it to seal.
        s.on_event(
            &Event::with_marker(
                0,
                0,
                1.0,
                Marker {
                    channel: 1,
                    kind: MarkerKind::Start,
                },
            ),
            &mut out,
        );
        assert!(out.is_empty());
        s.on_event(
            &Event::with_marker(
                10,
                0,
                2.0,
                Marker {
                    channel: 1,
                    kind: MarkerKind::End,
                },
            ),
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].ends[0].first_slice, 0);
    }

    #[test]
    fn calculations_shared_across_functions() {
        // avg + sum -> 2 operator executions per event, not 3 (Figure 9b).
        let qs = vec![
            Query::new(
                1,
                WindowSpec::tumbling_time(100).unwrap(),
                AggFunction::Average,
            ),
            Query::new(2, WindowSpec::tumbling_time(100).unwrap(), AggFunction::Sum),
        ];
        let mut s = slicer_for(qs);
        feed(&mut s, &[(0, 1.0), (1, 2.0), (2, 3.0)]);
        assert_eq!(s.metrics().calculations, 6);
        assert_eq!(s.metrics().events, 3);
    }

    #[test]
    fn sliding_count_windows_overlap() {
        // length 4, step 2 over 8 events: windows [0,4), [2,6), [4,8).
        let q = Query::new(
            1,
            WindowSpec::sliding_count(4, 2).unwrap(),
            AggFunction::Sum,
        );
        let mut s = slicer_for(vec![q]);
        let mut out = Vec::new();
        for i in 0..8u64 {
            s.on_event(&Event::new(i, 0, 1.0), &mut out);
        }
        let ends: Vec<_> = out.iter().flat_map(|sl| &sl.ends).collect();
        assert_eq!(ends.len(), 3);
        assert_eq!(
            ends.iter()
                .map(|e| (e.start_ts, e.end_ts))
                .collect::<Vec<_>>(),
            vec![(0, 4), (2, 6), (4, 8)]
        );
        // Overlapping count windows share slices: [2,6) spans the slices
        // of [0,4)'s tail and [4,8)'s head.
        assert!(ends[1].first_slice <= ends[0].last_slice);
        assert!(ends[1].last_slice >= ends[2].first_slice);
    }

    #[test]
    fn stale_watermarks_are_ignored() {
        let q = Query::new(1, WindowSpec::tumbling_time(100).unwrap(), AggFunction::Sum);
        let mut s = slicer_for(vec![q]);
        let mut out = Vec::new();
        s.on_event(&Event::new(250, 0, 1.0), &mut out);
        s.on_watermark(300, &mut out);
        let produced = out.len();
        // A regressing watermark must not fire anything or panic.
        s.on_watermark(100, &mut out);
        s.on_watermark(300, &mut out);
        assert_eq!(out.len(), produced);
    }

    #[test]
    fn watermark_before_any_event_is_a_noop() {
        let q = Query::new(1, WindowSpec::tumbling_time(100).unwrap(), AggFunction::Sum);
        let mut s = slicer_for(vec![q]);
        let mut out = Vec::new();
        s.on_watermark(1_000, &mut out);
        assert!(out.is_empty());
        s.flush(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn next_punctuation_is_the_earliest_pending_boundary_or_gap_end() {
        let tumbling = Query::new(1, WindowSpec::tumbling_time(100).unwrap(), AggFunction::Sum);
        let sliding = Query::new(
            2,
            WindowSpec::sliding_time(300, 40).unwrap(),
            AggFunction::Sum,
        );
        let session = Query::new(3, WindowSpec::session(25).unwrap(), AggFunction::Sum);
        let mut out = Vec::new();

        let mut s = slicer_for(vec![tumbling.clone()]);
        assert_eq!(s.next_punctuation(), None, "no stream, no boundary");
        s.on_event(&Event::new(230, 0, 1.0), &mut out);
        assert_eq!(s.next_punctuation(), Some(300));
        let mut s = slicer_for(vec![sliding.clone()]);
        s.on_event(&Event::new(230, 0, 1.0), &mut out);
        assert_eq!(s.next_punctuation(), Some(240));
        let mut s = slicer_for(vec![session.clone()]);
        s.on_event(&Event::new(230, 0, 1.0), &mut out);
        assert_eq!(s.next_punctuation(), Some(255), "last event + gap");
        s.on_event(&Event::new(250, 0, 1.0), &mut out);
        assert_eq!(s.next_punctuation(), Some(275), "the session was extended");

        // The minimum of both, moved by a watermark only once it gets there.
        let mut s = slicer_for(vec![tumbling, session]);
        s.on_event(&Event::new(230, 0, 1.0), &mut out);
        s.on_event(&Event::new(290, 0, 1.0), &mut out);
        out.clear();
        assert_eq!(s.next_punctuation(), Some(300));
        s.on_watermark(299, &mut out);
        assert_eq!((s.next_punctuation(), out.len()), (Some(300), 0));
        s.on_watermark(300, &mut out);
        assert_eq!((s.next_punctuation(), out.len()), (Some(315), 1));
        s.on_watermark(315, &mut out);
        assert_eq!((s.next_punctuation(), out.len()), (Some(400), 2));
        assert_eq!(out[1].ends[0].query, 3, "the session closed at its gap end");

        // Count and user-defined windows end on data: nothing is pending.
        let mut s = slicer_for(vec![
            Query::new(1, WindowSpec::tumbling_count(3).unwrap(), AggFunction::Sum),
            Query::new(2, WindowSpec::user_defined(1), AggFunction::Sum),
        ]);
        s.on_event(&Event::new(230, 0, 1.0), &mut out);
        assert_eq!(s.next_punctuation(), None);
    }

    #[test]
    fn remove_unknown_query_returns_false() {
        let q = Query::new(1, WindowSpec::tumbling_time(100).unwrap(), AggFunction::Sum);
        let mut s = slicer_for(vec![q]);
        assert!(!s.remove_query(99, true));
        assert!(s.remove_query(1, true));
        // Removing twice is fine.
        assert!(!s.remove_query(1, true));
    }

    #[test]
    fn flush_emits_partial_slice() {
        let q = Query::new(1, WindowSpec::tumbling_time(100).unwrap(), AggFunction::Sum);
        let mut s = slicer_for(vec![q]);
        let mut out = feed(&mut s, &[(0, 1.0), (10, 2.0)]);
        assert!(out.is_empty());
        s.flush(&mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].ends.is_empty());
        assert!(!out[0].data.is_empty());
    }
}
