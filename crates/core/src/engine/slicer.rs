//! The stream slicer (paper Section 4.1).
//!
//! One [`GroupSlicer`] drives one query-group. It cuts the event stream
//! into slices at every punctuation of every member window, performs
//! incremental per-event aggregation into the shared operator bundles of
//! the current slice, and annotates each sealed slice with the window end
//! punctuations (`ep`s) that terminate at it.
//!
//! Each member query has one slot: what it has open, and whether it
//! drains. A fixed-size window is one slot type whatever its measure,
//! with one close-at-punctuation / open-at-punctuation pair; a
//! count-measured slot only adds its own clock, the events its selection
//! matched. Fixed-size time windows have their punctuations computed *in
//! advance*: the slicer caches the next punctuation time, and a run of
//! events between two punctuations costs one `partition_point` on their
//! timestamps (this is why Desis' throughput is flat in the number of
//! concurrent windows, Figure 6b). Session windows, user-defined windows
//! (at most one open window each) and count-measured windows contribute
//! data-driven punctuations. A removed query's slot drains (Section 3.2):
//! it opens no new window, and one retirement pass — run at the removal
//! and after every seal — drops it once nothing of it is open.
//!
//! [`GroupSlicer::on_run`] is the one way events come in
//! ([`GroupSlicer::on_event`] is a run of one). The run is cut into
//! segments that cross no boundary: at the next time punctuation, at every
//! marker, right after the event that reaches a count window's next
//! punctuation, and where a session's gap elapses between two matching
//! timestamps. A segment is aggregated selection by selection. Each
//! selection's predicate is evaluated once per event (the selection
//! sharing of Section 4.2.3): into a match column that finding a
//! segment's end and aggregating it both read, when a group with
//! data-driven boundaries slices a run of more than one event, and in the
//! aggregation loop otherwise; sessions and count windows read what the
//! aggregation loop accepted.

use std::collections::VecDeque;
use std::ops::Range;

use rustc_hash::FxHashMap;

use crate::aggregate::{OperatorBundle, OperatorSet};
use crate::engine::group::{CompiledQuery, QueryGroup, Selection};
use crate::engine::slice::{SealedSlice, SessionGap, SliceData, SliceId, WindowEnd};
use crate::event::{Event, Key, MarkerChannel, MarkerKind};
use crate::metrics::EngineMetrics;
use crate::obs::trace::{SpanKind, TraceId, TraceRecorder};
use crate::time::{DurationMs, Timestamp};
use crate::window::{Measure, WindowKind, WindowSpec};

/// One member query's window state: what it has open, and whether it
/// drains — opens no new windows while those in flight complete
/// (Section 3.2). [`GroupSlicer::retire`] drops a draining slot with
/// nothing open.
#[derive(Debug, Clone)]
struct Slot<W> {
    query_idx: usize,
    draining: bool,
    windows: W,
}

/// What a slot has open, whatever its window class.
trait Windows {
    /// The oldest open window's first slice and, in event time, its
    /// start (`None` for a count window: its extent is in the count
    /// domain).
    fn oldest(&self) -> Option<(SliceId, Option<Timestamp>)>;

    /// Drops every open window.
    fn clear(&mut self);
}

impl<W> Slot<W> {
    fn new(query_idx: usize, windows: W) -> Self {
        Self {
            query_idx,
            draining: false,
            windows,
        }
    }
}

/// An open window of a fixed-size window query.
#[derive(Debug, Clone)]
struct Instance {
    /// Window start in the punctuation domain (ms for time, matched
    /// events for count); count windows report their extent there too.
    start: u64,
    /// First slice of the window.
    first_slice: SliceId,
}

/// Fixed-size windows, time- or count-measured: the open instances,
/// oldest first. `C` is what the measure adds: nothing for time, whose
/// clock is the stream's, and a [`Counter`] for count.
#[derive(Debug, Clone)]
struct Fixed<C = ()> {
    spec: WindowSpec,
    instances: VecDeque<Instance>,
    counter: C,
}

/// A count window's own clock.
#[derive(Debug, Clone, Copy)]
struct Counter {
    /// Events matched by the query's selection so far.
    count: u64,
    /// Next punctuation in the count domain.
    next_punct: u64,
}

impl Counter {
    /// Whether the matched events reached the next punctuation.
    fn due(&self) -> bool {
        self.count == self.next_punct
    }
}

impl<C> Fixed<C> {
    fn new(spec: WindowSpec, counter: C) -> Self {
        Self {
            spec,
            instances: VecDeque::new(),
            counter,
        }
    }
}

impl<C> Windows for Fixed<C> {
    fn oldest(&self) -> Option<(SliceId, Option<Timestamp>)> {
        let time = self.spec.measure == Measure::Time;
        let inst = self.instances.front()?;
        Some((inst.first_slice, time.then_some(inst.start)))
    }

    fn clear(&mut self) {
        self.instances.clear();
    }
}

impl<C> Slot<Fixed<C>> {
    /// Closes the oldest open window if one of the query's windows ends
    /// at punctuation `p` (a time, or a count of matched events), with
    /// `last_slice` its last slice.
    fn close_at(
        &mut self,
        p: u64,
        last_slice: SliceId,
        queries: &[CompiledQuery],
    ) -> Option<WindowEnd> {
        let start = self.windows.spec.fixed_window_ending_at(p)?;
        let inst = self.windows.instances.pop_front()?;
        debug_assert_eq!(inst.start, start, "window end out of order");
        Some(WindowEnd {
            query: queries[self.query_idx].query.id,
            first_slice: inst.first_slice,
            last_slice,
            start_ts: inst.start,
            end_ts: p,
        })
    }

    /// Opens a window if one of the query's windows starts at
    /// punctuation `p` and the query does not drain, with `first_slice`
    /// its first slice.
    fn open_at(&mut self, p: u64, first_slice: SliceId) {
        if !self.draining && self.windows.spec.fixed_window_starting_at(p) {
            self.windows.instances.push_back(Instance {
                start: p,
                first_slice,
            });
        }
    }
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

/// A session-window query's gap and open session.
#[derive(Debug, Clone)]
struct Session {
    gap: DurationMs,
    open: Option<OpenSession>,
}

impl Windows for Session {
    fn oldest(&self) -> Option<(SliceId, Option<Timestamp>)> {
        let open = self.open.as_ref()?;
        Some((open.first_slice, Some(open.first_ts)))
    }

    fn clear(&mut self) {
        self.open = None;
    }
}

/// An open user-defined window.
#[derive(Debug, Clone)]
struct OpenUd {
    start_ts: Timestamp,
    first_slice: SliceId,
}

/// A user-defined-window query's marker channel and open window.
#[derive(Debug, Clone)]
struct UserDefined {
    channel: MarkerChannel,
    open: Option<OpenUd>,
}

impl Windows for UserDefined {
    fn oldest(&self) -> Option<(SliceId, Option<Timestamp>)> {
        let open = self.open.as_ref()?;
        Some((open.first_slice, Some(open.start_ts)))
    }

    fn clear(&mut self) {
        self.open = None;
    }
}

/// Removes query `idx` if `slots` holds its slot: the slot drains, with
/// nothing open left if `immediate`. `false` if `slots` does not hold it.
fn stop<W: Windows>(slots: &mut [Slot<W>], idx: usize, immediate: bool) -> bool {
    let Some(slot) = slots.iter_mut().find(|s| s.query_idx == idx) else {
        return false;
    };
    slot.draining = true;
    if immediate {
        slot.windows.clear();
    }
    true
}

/// Drops every draining slot with nothing open; `true` if any was.
fn retire<W: Windows>(slots: &mut Vec<Slot<W>>) -> bool {
    let len = slots.len();
    slots.retain(|s| !s.draining || s.windows.oldest().is_some());
    slots.len() < len
}

/// The oldest open window of every slot ([`Windows::oldest`]).
fn oldest<W: Windows>(
    slots: &[Slot<W>],
) -> impl Iterator<Item = (SliceId, Option<Timestamp>)> + '_ {
    slots.iter().filter_map(|s| s.windows.oldest())
}

/// The distinct specs of time-measured fixed-size slots: the sources of
/// the precomputed punctuations.
fn time_specs(fixed: &[Slot<Fixed>]) -> Vec<WindowSpec> {
    let mut specs: Vec<WindowSpec> = Vec::new();
    for slot in fixed {
        if !specs.contains(&slot.windows.spec) {
            specs.push(slot.windows.spec);
        }
    }
    specs
}

/// Slicer for one query-group.
#[derive(Debug, Clone)]
pub struct GroupSlicer {
    group: QueryGroup,
    /// Deduplicated specs of `fixed` (punctuation sources).
    fixed_specs: Vec<WindowSpec>,
    /// Time-measured fixed-size windows.
    fixed: Vec<Slot<Fixed>>,
    /// Cached earliest upcoming fixed-time punctuation.
    next_time_punct: Option<Timestamp>,
    sessions: Vec<Slot<Session>>,
    uds: Vec<Slot<UserDefined>>,
    counts: Vec<Slot<Fixed<Counter>>>,
    slice_seq: SliceId,
    cur_start: Timestamp,
    cur_events: u64,
    cur_data: SliceData,
    initialized: bool,
    last_seen_ts: Timestamp,
    metrics: EngineMetrics,
    /// The match column of the run being sliced (reused across runs).
    matches: MatchColumn,
    /// What each selection accepted of the segment being sliced.
    seen: Vec<Seen>,
    /// Provenance span recorder; `None` (the default) disables tracing.
    /// Boxed so the disabled hot path is a null check and the slicer's
    /// layout stays compact.
    tracer: Option<Box<TracerState>>,
}

/// Which events of a run each selection accepts. A group whose boundaries
/// depend on the data (session, count or user-defined windows) fills it
/// for a run of more than one event: each predicate is evaluated once per
/// event, and finding where a segment ends as well as aggregating it read
/// the answer here. Otherwise the aggregation loop is the one reader and
/// evaluates the predicates itself; sessions and counts read what it
/// accepted ([`Seen`]).
#[derive(Debug, Clone, Default)]
struct MatchColumn {
    /// One flag per event of the run, selection after selection.
    accepts: Vec<bool>,
    /// Events of the run the column holds (0: it holds none).
    len: usize,
}

impl MatchColumn {
    /// Evaluates every selection's predicate over `run`, if it is longer
    /// than one event.
    #[inline]
    fn fill(&mut self, selections: &[Selection], run: &[Event]) {
        self.len = 0;
        if run.len() < 2 {
            return;
        }
        self.accepts.clear();
        for sel in selections {
            let accepts = run.iter().map(|ev| sel.predicate.matches(ev));
            self.accepts.extend(accepts);
        }
        self.len = run.len();
    }

    /// Which events of the run's `range` selection `sel` accepts, if the
    /// column holds the run.
    #[inline]
    fn of(&self, sel: usize, range: Range<usize>) -> Option<&[bool]> {
        if self.len == 0 {
            return None;
        }
        let base = sel * self.len;
        self.accepts.get(base + range.start..base + range.end)
    }

    /// The events of `segment` (the run's `range`) that selection `sel`
    /// accepts, with their positions in `segment`: read from the column
    /// if it holds the run, evaluated here otherwise.
    #[inline]
    fn accepted<'a>(
        &'a self,
        selections: &'a [Selection],
        sel: usize,
        segment: &'a [Event],
        range: Range<usize>,
    ) -> impl Iterator<Item = (usize, &'a Event)> + 'a {
        let predicate = &selections[sel].predicate;
        let column = self.of(sel, range);
        let flagged = move |(pos, ev): &(usize, &Event)| match column {
            Some(accepts) => accepts.get(*pos).copied().unwrap_or(false),
            None => predicate.matches(ev),
        };
        segment.iter().enumerate().filter(flagged)
    }
}

/// What one selection accepted of a segment: how many events, and the
/// timestamps of the first and the last.
#[derive(Debug, Clone, Copy, Default)]
struct Seen {
    count: u64,
    first_ts: Timestamp,
    last_ts: Timestamp,
}

/// Updates `bundles` with the events of `segment` that `accepted` (given
/// an event's position in `segment`) takes; returns the operator
/// executions and what was accepted.
#[inline(always)]
fn visit(
    bundles: &mut FxHashMap<Key, OperatorBundle>,
    operators: OperatorSet,
    segment: &[Event],
    accepted: impl Fn(usize, &Event) -> bool,
) -> (u64, Seen) {
    let (mut calculations, mut seen) = (0, Seen::default());
    for (pos, ev) in segment.iter().enumerate() {
        if accepted(pos, ev) {
            if seen.count == 0 {
                seen.first_ts = ev.ts;
            }
            seen.last_ts = ev.ts;
            seen.count += 1;
            calculations += add(bundles, operators, ev);
        }
    }
    (calculations, seen)
}

/// Aggregates `ev` into its key's bundle; returns the operator
/// executions.
#[inline(always)]
fn add(bundles: &mut FxHashMap<Key, OperatorBundle>, operators: OperatorSet, ev: &Event) -> u64 {
    let bundle = bundles
        .entry(ev.key)
        .or_insert_with(|| OperatorBundle::new(operators));
    bundle.update(ev.value)
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
    /// Creates a slicer for `group`: one slot per member window query.
    pub fn new(group: QueryGroup) -> Self {
        let (mut fixed, mut sessions, mut uds, mut counts) = (vec![], vec![], vec![], vec![]);
        for (idx, cq) in group.queries.iter().enumerate() {
            let spec = cq.query.window;
            match spec.kind {
                WindowKind::Session { gap } => {
                    sessions.push(Slot::new(idx, Session { gap, open: None }));
                }
                WindowKind::UserDefined { channel } => {
                    uds.push(Slot::new(
                        idx,
                        UserDefined {
                            channel,
                            open: None,
                        },
                    ));
                }
                _ if spec.measure == Measure::Time => {
                    fixed.push(Slot::new(idx, Fixed::new(spec, ())))
                }
                _ => {
                    // A validated count spec always has punctuations; if
                    // one somehow does not, the slot simply never seals.
                    let next_punct = spec.next_count_punct_after(0).unwrap_or(u64::MAX);
                    let counter = Counter {
                        count: 0,
                        next_punct,
                    };
                    counts.push(Slot::new(idx, Fixed::new(spec, counter)));
                }
            }
        }
        let selections = group.selections.len();
        Self {
            group,
            fixed_specs: time_specs(&fixed),
            fixed,
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
            matches: MatchColumn::default(),
            seen: vec![Seen::default(); selections],
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
        let stopped = stop(&mut self.fixed, idx, immediate)
            | stop(&mut self.sessions, idx, immediate)
            | stop(&mut self.uds, idx, immediate)
            | stop(&mut self.counts, idx, immediate);
        self.retire();
        stopped
    }

    /// Drops every draining slot with nothing open: the one place a
    /// removed query leaves the slicer, run at the removal and after
    /// every seal. A retired fixed time slot no longer punctuates.
    fn retire(&mut self) {
        retire(&mut self.sessions);
        retire(&mut self.uds);
        retire(&mut self.counts);
        if retire(&mut self.fixed) {
            self.fixed_specs = time_specs(&self.fixed);
            if self.initialized {
                self.next_time_punct = self.next_fixed_punct(self.last_seen_ts);
            }
        }
    }

    /// The earliest fixed-window punctuation strictly after `ts`.
    fn next_fixed_punct(&self, ts: Timestamp) -> Option<Timestamp> {
        let puncts = self.fixed_specs.iter();
        puncts.filter_map(|s| s.next_time_punct_after(ts)).min()
    }

    /// The event time the slicer's stream stands at: its newest event,
    /// marker or watermark (`None` before its first event).
    pub(super) fn reached(&self) -> Option<Timestamp> {
        self.initialized.then_some(self.last_seen_ts)
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
        for slot in &mut self.fixed {
            let (length, step) = match slot.windows.spec.kind {
                WindowKind::Tumbling { length } => (length, length),
                WindowKind::Sliding { length, step } => (length, step),
                // Fixed slots are built for tumbling/sliding windows only.
                _ => continue,
            };
            // All windows [k*step, k*step + length) covering first_ts.
            let k_min = if first_ts < length {
                0
            } else {
                (first_ts - length) / step + 1
            };
            for k in k_min..=first_ts / step {
                slot.windows.instances.push_back(Instance {
                    start: k * step,
                    first_slice: self.slice_seq,
                });
            }
        }
        for slot in &mut self.counts {
            // The first count window begins with the first matched event.
            // Count windows report window_start/window_end in the count
            // domain (matched-event offsets), since their event-time
            // extent depends on data arrival.
            slot.open_at(0, self.slice_seq);
        }
        self.next_time_punct = self.next_fixed_punct(first_ts);
        self.initialized = true;
    }

    /// Ingests one event: a run of one ([`GroupSlicer::on_run`]).
    #[inline]
    pub fn on_event(&mut self, ev: &Event, out: &mut Vec<SealedSlice>) {
        self.on_run(std::slice::from_ref(ev), out);
    }

    /// Ingests a run of events. Sealed slices (if any punctuation fired)
    /// are appended to `out`, exactly as feeding the events one at a time
    /// would append them.
    ///
    /// Events must arrive in non-decreasing timestamp order per slicer;
    /// this matches the paper's generators and is asserted in debug
    /// builds.
    // Always inlined: a run of one ([`GroupSlicer::on_event`]) then
    // compiles to straight-line code.
    #[inline(always)]
    pub fn on_run(&mut self, run: &[Event], out: &mut Vec<SealedSlice>) {
        let Some(first) = run.first() else { return };
        if !self.initialized {
            self.init(first.ts);
        }
        debug_assert!(
            first.ts >= self.last_seen_ts && run.is_sorted_by_key(|ev| ev.ts),
            "out-of-order run after {}",
            self.last_seen_ts
        );
        // Session, count and user-defined windows put boundaries where the
        // data says; without them a segment ends at the next time
        // punctuation.
        let data_driven =
            !(self.sessions.is_empty() && self.counts.is_empty() && self.uds.is_empty());
        if data_driven {
            self.matches.fill(&self.group.selections, run);
        }
        let mut from = 0;
        while from < run.len() {
            let ts = run[from].ts;
            self.last_seen_ts = ts;
            self.fire_time_puncts(ts, out);
            from = if data_driven {
                self.slice_data_driven(run, from, out)
            } else {
                self.slice_timed(run, from)
            };
        }
    }

    /// Slices the segment of `run` that starts at `from` in a group whose
    /// boundaries are all time punctuations: up to the next one. Returns
    /// where the segment ends.
    #[inline]
    fn slice_timed(&mut self, run: &[Event], from: usize) -> usize {
        let end = if from + 1 == run.len() {
            run.len()
        } else {
            self.time_cut(run, from)
        };
        let segment = &run[from..end];
        self.count_segment(segment.len());
        for (sel, selection) in self.group.selections.iter().enumerate() {
            let bundles = &mut self.cur_data.per_selection[sel];
            let mut calculations = 0;
            for ev in segment {
                if selection.predicate.matches(ev) {
                    calculations += add(bundles, selection.operators, ev);
                }
            }
            self.metrics.calculations += calculations;
        }
        self.last_seen_ts = run[end - 1].ts;
        end
    }

    /// Where a segment starting at `run[from]` ends if only time
    /// punctuations cut: before the next one.
    #[inline]
    fn time_cut(&self, run: &[Event], from: usize) -> usize {
        match self.next_time_punct {
            Some(t) => from + run[from..].partition_point(|ev| ev.ts < t),
            None => run.len(),
        }
    }

    /// Counts a segment's events into the current slice. The first event
    /// of a slice mints its trace id (when tracing is on).
    #[inline]
    fn count_segment(&mut self, events: usize) {
        if self.cur_events == 0 && self.tracer.is_some() {
            self.mint_trace();
        }
        self.cur_events += events as u64;
        self.metrics.events += events as u64;
    }

    /// Slices the segment of `run` that starts at `from` in a group with
    /// data-driven boundaries, reading the match column. A marker is a
    /// segment of its own: a start marker opens user-defined windows
    /// *from this event* (the slice boundary lies just before it), and an
    /// end marker is the window's last event. Sessions whose selection
    /// matched open or extend, and the slice seals just *after* the
    /// segment if a count window reached its next punctuation or the
    /// segment is an end marker. Returns where the segment ends.
    #[inline(never)]
    fn slice_data_driven(
        &mut self,
        run: &[Event],
        from: usize,
        out: &mut Vec<SealedSlice>,
    ) -> usize {
        let marker = run[from].marker.filter(|_| !self.uds.is_empty());
        let end = match marker {
            Some(marker) => {
                if marker.kind == MarkerKind::Start {
                    self.open_uds(marker.channel, run[from].ts, out);
                }
                from + 1
            }
            None if from + 1 == run.len() => run.len(),
            None => self.segment_end(run, from),
        };
        let segment = &run[from..end];
        self.count_segment(segment.len());
        for (sel, selection) in self.group.selections.iter().enumerate() {
            let bundles = &mut self.cur_data.per_selection[sel];
            let operators = selection.operators;
            let (calculations, seen) = match self.matches.of(sel, from..end) {
                Some(accepts) => visit(bundles, operators, segment, |pos, _| accepts[pos]),
                None => visit(bundles, operators, segment, |_, ev| {
                    selection.predicate.matches(ev)
                }),
            };
            self.metrics.calculations += calculations;
            self.seen[sel] = seen;
        }
        for slot in &mut self.sessions {
            let seen = self.seen[self.group.queries[slot.query_idx].selection as usize];
            if seen.count == 0 {
                continue;
            }
            match &mut slot.windows.open {
                Some(open) => open.last_ts = seen.last_ts,
                None => {
                    slot.windows.open = Some(OpenSession {
                        first_ts: seen.first_ts,
                        last_ts: seen.last_ts,
                        first_slice: self.slice_seq,
                    })
                }
            }
        }
        let mut needs_seal = false;
        for slot in &mut self.counts {
            let seen = self.seen[self.group.queries[slot.query_idx].selection as usize];
            let counter = &mut slot.windows.counter;
            counter.count += seen.count;
            needs_seal |= counter.due();
        }
        let last = &run[end - 1];
        self.last_seen_ts = last.ts;
        let ud_end = marker.is_some_and(|m| m.kind == MarkerKind::End && self.ud_open(m.channel));
        if needs_seal || ud_end {
            self.seal_data_boundary(last, out);
        }
        end
    }

    /// Where the segment of `run` starting at `from` (no marker) must end:
    /// before the next time punctuation, right after the event that
    /// reaches a count window's next punctuation, before the first event
    /// at or past a session's gap end, and before the next marker. At
    /// least one event long.
    fn segment_end(&self, run: &[Event], from: usize) -> usize {
        let selections = &self.group.selections;
        let mut end = self.time_cut(run, from);
        for slot in &self.counts {
            let sel = self.group.queries[slot.query_idx].selection as usize;
            let Counter { count, next_punct } = slot.windows.counter;
            let kth = next_punct.saturating_sub(count + 1);
            let kth = usize::try_from(kth).unwrap_or(usize::MAX);
            let mut matched = self
                .matches
                .accepted(selections, sel, &run[from..end], from..end);
            if let Some((pos, _)) = matched.nth(kth) {
                end = from + pos + 1;
            }
        }
        for slot in &self.sessions {
            let sel = self.group.queries[slot.query_idx].selection as usize;
            // The gap test between consecutive matching timestamps.
            let Session { gap, open } = &slot.windows;
            let mut gap_end = open.as_ref().map(|open| open.gap_end(*gap));
            let segment = &run[from..end];
            for (_, ev) in self.matches.accepted(selections, sel, segment, from..end) {
                if gap_end.is_some_and(|gap_end| ev.ts >= gap_end) {
                    break;
                }
                gap_end = Some(ev.ts.saturating_add(*gap));
            }
            if let Some(gap_end) = gap_end {
                end = from + run[from..end].partition_point(|ev| ev.ts < gap_end);
            }
        }
        if !self.uds.is_empty() {
            if let Some(next) = run[from + 1..end].iter().position(|ev| ev.marker.is_some()) {
                end = from + 1 + next;
            }
        }
        end.max(from + 1)
    }

    /// Seals the slice before a start marker on `channel` at `ts` and
    /// opens the closed user-defined windows listening on it.
    #[inline(never)]
    fn open_uds(&mut self, channel: MarkerChannel, ts: Timestamp, out: &mut Vec<SealedSlice>) {
        if !self
            .uds
            .iter()
            .any(|u| u.windows.channel == channel && u.windows.open.is_none())
        {
            return;
        }
        self.seal_boundary(ts, out);
        for slot in &mut self.uds {
            if slot.windows.channel == channel && slot.windows.open.is_none() {
                slot.windows.open = Some(OpenUd {
                    start_ts: ts,
                    first_slice: self.slice_seq,
                });
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
        if !self.uds.iter().any(|u| u.windows.channel == marker.channel) {
            return;
        }
        if !self.initialized {
            self.init(ev.ts);
        }
        debug_assert!(ev.ts >= self.last_seen_ts, "out-of-order marker");
        self.last_seen_ts = ev.ts;
        self.fire_time_puncts(ev.ts, out);
        match marker.kind {
            MarkerKind::Start => self.open_uds(marker.channel, ev.ts, out),
            MarkerKind::End => {
                if self.ud_open(marker.channel) {
                    self.seal_data_boundary(ev, out);
                }
            }
        }
    }

    /// Whether a user-defined window on `channel` is open.
    fn ud_open(&self, channel: MarkerChannel) -> bool {
        let mut uds = self.uds.iter().map(|u| &u.windows);
        uds.any(|u| u.channel == channel && u.open.is_some())
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
                let clear = match &slot.windows.open {
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
            if let Some(open) = &slot.windows.open {
                let gap_end = open.gap_end(slot.windows.gap);
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
        let queries = &self.group.queries;
        for slot in &mut self.fixed {
            ends.extend(slot.close_at(t, sealed_last, queries));
        }
        for slot in &mut self.sessions {
            let Session { gap, open } = &mut slot.windows;
            if let Some(open) = open.take_if(|open| open.gap_end(*gap) == t) {
                let query = queries[slot.query_idx].query.id;
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
            }
        }

        debug_assert!(
            !degenerate || self.slice_seq > 0 || ends.is_empty(),
            "window ends before any slice exists"
        );

        self.emit_slice(t, degenerate, ends, gaps, out);

        // Fixed windows starting at t begin with the new current slice.
        for slot in &mut self.fixed {
            slot.open_at(t, self.slice_seq);
        }
        self.retire();
        self.next_time_punct = self.next_fixed_punct(t);
    }

    /// Seals at a data-driven boundary just *after* the current event:
    /// count-window punctuations and user-defined end markers.
    fn seal_data_boundary(&mut self, ev: &Event, out: &mut Vec<SealedSlice>) {
        let sealed_last = self.slice_seq; // current slice has >= 1 event
        let mut ends = Vec::new();
        let queries = &self.group.queries;
        for slot in &mut self.counts {
            let counter = slot.windows.counter;
            if counter.due() {
                ends.extend(slot.close_at(counter.count, sealed_last, queries));
            }
        }
        // User-defined window ends (this event is the last of the window).
        if let Some(marker) = ev.marker.filter(|m| m.kind == MarkerKind::End) {
            for slot in &mut self.uds {
                let UserDefined { channel, open } = &mut slot.windows;
                if let Some(open) = open.take_if(|_| *channel == marker.channel) {
                    ends.push(WindowEnd {
                        query: queries[slot.query_idx].query.id,
                        first_slice: open.first_slice,
                        last_slice: sealed_last,
                        start_ts: open.start_ts,
                        end_ts: ev.ts,
                    });
                }
            }
        }

        self.emit_slice(ev.ts, false, ends, Vec::new(), out);

        for slot in &mut self.counts {
            let counter = slot.windows.counter;
            if counter.due() {
                slot.open_at(counter.count, self.slice_seq);
                // A spec with no further punctuation never seals again.
                let next = slot.windows.spec.next_count_punct_after(counter.count);
                slot.windows.counter.next_punct = next.unwrap_or(u64::MAX);
            }
        }
        self.retire();
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
        let (low_watermark, low_watermark_ts) = self.low_watermarks(end_ts);
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

    /// The smallest slice id an open window still reads (the next
    /// slice's if none), and the earliest event-time start of an open
    /// window (`fallback` if none). Count windows do not count for the
    /// latter: their extent is data-dependent and count groups are never
    /// aggregated decentrally (Section 5.2).
    fn low_watermarks(&self, fallback: Timestamp) -> (SliceId, Timestamp) {
        let open = oldest(&self.fixed).chain(oldest(&self.sessions));
        let open = open.chain(oldest(&self.uds)).chain(oldest(&self.counts));
        open.fold((self.slice_seq, fallback), |(low, low_ts), (slice, ts)| {
            (low.min(slice), ts.map_or(low_ts, |ts| low_ts.min(ts)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggFunction;
    use crate::engine::analyzer::QueryAnalyzer;
    use crate::engine::merge::tests::for_cases;
    use crate::event::Marker;
    use crate::obs::trace::TraceCollector;
    use crate::predicate::Predicate;
    use crate::query::Query;
    use rand::rngs::SmallRng;
    use rand::Rng;

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

    /// A query over a random window class and predicate. Time lengths
    /// are multiples of 10 ms, so events often fall on a punctuation.
    fn arb_query(rng: &mut SmallRng, id: u64) -> Query {
        let window = match rng.gen_range(0u32..6) {
            0 => WindowSpec::tumbling_time(10 * rng.gen_range(1u64..8)),
            1 => {
                let step = 10 * rng.gen_range(1u64..4);
                WindowSpec::sliding_time(step * rng.gen_range(1u64..4), step)
            }
            2 => WindowSpec::session(rng.gen_range(1u64..40)),
            3 => WindowSpec::tumbling_count(rng.gen_range(1u64..6)),
            4 => {
                let step = rng.gen_range(1u64..4);
                WindowSpec::sliding_count(step * rng.gen_range(1u64..4), step)
            }
            _ => Ok(WindowSpec::user_defined(rng.gen_range(1u32..3))),
        };
        let predicate = [
            Predicate::True,
            Predicate::KeyEquals(0),
            Predicate::KeyEquals(1),
            Predicate::ValueAbove(3.0),
            Predicate::ValueBelow(2.0),
            Predicate::ValueBetween(1.0, 4.0),
        ][rng.gen_range(0usize..6)];
        let function = [
            AggFunction::Sum,
            AggFunction::Product,
            AggFunction::Max,
            AggFunction::Median,
            AggFunction::Variance,
        ][rng.gen_range(0usize..5)];
        Query::new(id, window.unwrap(), function).filtered(predicate)
    }

    /// An ordered stream with same-timestamp ties, events exactly on
    /// multiples of 10 ms, gaps that close sessions, and markers (some
    /// in identical pairs, some on a channel no query listens to), each
    /// flagged when it belongs to another key partition.
    fn arb_stream(rng: &mut SmallRng) -> Vec<(Event, bool)> {
        let mut ts = rng.gen_range(0u64..50);
        let mut stream = Vec::new();
        for _ in 0..rng.gen_range(0usize..300) {
            ts += match rng.gen_range(0u32..10) {
                0..=3 => 0,
                4 => 10 - ts % 10,
                5 => rng.gen_range(20u64..60),
                _ => rng.gen_range(1u64..5),
            };
            // -1 to 6: products meet zeros and signs.
            let value = f64::from(rng.gen_range(0i32..8) - 1);
            let mut ev = Event::new(ts, rng.gen_range(0u32..3), value);
            let pair = if rng.gen_range(0u32..10) == 0 {
                let kind = if rng.gen_bool(0.5) {
                    MarkerKind::Start
                } else {
                    MarkerKind::End
                };
                let channel = rng.gen_range(1u32..4);
                ev.marker = Some(Marker { channel, kind });
                rng.gen_bool(0.5)
            } else {
                false
            };
            let foreign = ev.marker.is_some() && rng.gen_range(0u32..3) == 0;
            stream.push((ev, foreign));
            if pair {
                stream.push((ev, !foreign && rng.gen_bool(0.5)));
            }
        }
        stream
    }

    /// What is fed between runs.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        /// `stream[from..to]`, no foreign marker inside.
        Run(usize, usize),
        /// A marker of another key partition.
        Foreign(usize),
        Watermark(Timestamp),
        Remove(u64, bool),
    }

    /// Splits `stream` into random runs — empty ones, runs of one, runs
    /// cut before an event on a multiple of 10 ms — at every foreign
    /// marker, with watermarks and removals between some of them.
    fn arb_steps(rng: &mut SmallRng, stream: &[(Event, bool)], ids: &[u64]) -> Vec<Step> {
        let cut = [0.05, 0.3, 0.9][rng.gen_range(0usize..3)];
        let mut steps = Vec::new();
        let mut from = 0;
        for (pos, (ev, foreign)) in stream.iter().enumerate() {
            let on_punct = ev.ts.is_multiple_of(10) && rng.gen_bool(0.5);
            if *foreign || on_punct || rng.gen_bool(cut) {
                steps.push(Step::Run(from, pos));
                from = pos;
                if rng.gen_range(0u32..10) == 0 {
                    steps.push(Step::Run(pos, pos));
                }
                let last = pos.checked_sub(1).map_or(0, |prev| stream[prev].0.ts);
                if rng.gen_range(0u32..10) == 0 {
                    steps.push(Step::Watermark(rng.gen_range(last..=ev.ts)));
                }
                if rng.gen_range(0u32..60) == 0 {
                    let id = ids[rng.gen_range(0usize..ids.len())];
                    steps.push(Step::Remove(id, rng.gen_bool(0.5)));
                }
            }
            if *foreign {
                steps.push(Step::Foreign(pos));
                from = pos + 1;
            }
        }
        steps.push(Step::Run(from, stream.len()));
        steps
    }

    /// Every field of every slice, floats by their bits and keys in
    /// order.
    fn bits(slices: &[SealedSlice]) -> Vec<String> {
        let render = |slice: &SealedSlice| {
            let data: Vec<Vec<String>> = slice
                .data
                .per_selection
                .iter()
                .map(|bundles| {
                    let mut keyed: Vec<_> = bundles.iter().collect();
                    keyed.sort_by_key(|(key, _)| **key);
                    keyed
                        .iter()
                        .map(|(key, b)| format!("{key}: {b:?}"))
                        .collect()
                })
                .collect();
            format!(
                "{} [{}, {}) {:?} {:?} lw {} {} {:?} {data:?}",
                slice.id,
                slice.start_ts,
                slice.end_ts,
                slice.ends,
                slice.session_gaps,
                slice.low_watermark,
                slice.low_watermark_ts,
                slice.trace
            )
        };
        slices.iter().map(render).collect()
    }

    /// Feeding a group its events in runs seals what feeding them one at
    /// a time seals, bit for bit, with equal metrics and (`traced`) the
    /// same trace ids.
    fn run_slicing_equals_event_slicing(cases: u64, traced: bool) {
        for_cases(cases, |seed, rng| {
            let queries: Vec<Query> = (1..=rng.gen_range(1u64..6))
                .map(|id| arb_query(rng, id))
                .collect();
            let ids: Vec<u64> = queries.iter().map(|q| q.id).collect();
            let stream = arb_stream(rng);
            let steps = arb_steps(rng, &stream, &ids);
            let sample_every = rng.gen_range(1u64..4);
            for group in QueryAnalyzer::default().analyze(queries).unwrap() {
                let context = format!("seed {seed:#x}, group {}", group.id);
                let mut by_event = GroupSlicer::new(group.clone());
                let mut by_run = GroupSlicer::new(group);
                if traced {
                    by_event.set_recorder(TraceCollector::new(sample_every, 64).recorder(0));
                    by_run.set_recorder(TraceCollector::new(sample_every, 64).recorder(0));
                }
                let (mut want, mut got) = (Vec::new(), Vec::new());
                let mut checked = 0;
                for step in &steps {
                    match *step {
                        Step::Run(from, to) => {
                            let run: Vec<Event> = stream[from..to].iter().map(|e| e.0).collect();
                            for ev in &run {
                                by_event.on_event(ev, &mut want);
                            }
                            by_run.on_run(&run, &mut got);
                        }
                        Step::Foreign(pos) => {
                            by_event.on_marker(&stream[pos].0, &mut want);
                            by_run.on_marker(&stream[pos].0, &mut got);
                        }
                        Step::Watermark(ts) => {
                            by_event.on_watermark(ts, &mut want);
                            by_run.on_watermark(ts, &mut got);
                        }
                        Step::Remove(id, immediate) => {
                            let removed = by_event.remove_query(id, immediate);
                            assert_eq!(by_run.remove_query(id, immediate), removed, "{context}");
                        }
                    }
                    assert_eq!(got.len(), want.len(), "{context}, after {step:?}");
                    let sealed = bits(&got[checked..]);
                    assert_eq!(sealed, bits(&want[checked..]), "{context}, after {step:?}");
                    checked = got.len();
                }
                assert_eq!(by_run.metrics(), by_event.metrics(), "{context}");
                let punctuation = by_event.next_punctuation();
                assert_eq!(by_run.next_punctuation(), punctuation, "{context}");
                let clears = by_event.unfixed_clears(0);
                assert_eq!(by_run.unfixed_clears(0), clears, "{context}");
                by_event.flush(&mut want);
                by_run.flush(&mut got);
                assert_eq!(bits(&got), bits(&want), "{context}, at the flush");
            }
        });
    }

    #[test]
    fn run_slicing_equals_event_slicing_on_seeded_streams() {
        run_slicing_equals_event_slicing(100, false);
        run_slicing_equals_event_slicing(40, true);
    }

    #[test]
    #[ignore = "larger case count: run in release (ci.yml)"]
    fn run_slicing_equals_event_slicing_at_length() {
        run_slicing_equals_event_slicing(3_000, false);
        run_slicing_equals_event_slicing(1_000, true);
    }

    /// The window classes a removal is pinned on.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Removed {
        Tumbling,
        Sliding,
        Session,
        Count,
        UserDefined,
    }

    /// When a removal is pinned at: before the first event, or right
    /// after the first event at 85 ms (every window is open and none
    /// ends), at 300 ms (a time punctuation of every time window) or the
    /// 42nd event (a punctuation of both count windows, the tie of a start
    /// marker at 160 ms).
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Moment {
        BeforeFirstEvent,
        MidWindow,
        OnTimePunctuation,
        OnCountBoundary,
    }

    /// An event every 5 ms (two at multiples of 20 ms), with gaps at
    /// [200, 260) and [450, 490) that close sessions, and user-defined
    /// windows on channel 1 from `ts % 150 == 10` to `ts % 150 == 115`.
    fn removal_stream() -> Vec<Event> {
        let gap = |ts: &u64| (200..260).contains(ts) || (450..490).contains(ts);
        let mut events = Vec::new();
        for ts in (0..700u64).step_by(5).filter(|ts| !gap(ts)) {
            for copy in 0..1 + u64::from(ts % 20 == 0) {
                let i = events.len() as u64;
                let mut ev = Event::new(ts, (i % 3) as u32, (i % 7) as f64 * 0.3 - 0.5);
                let kind = match ts % 150 {
                    10 => Some(MarkerKind::Start),
                    115 => Some(MarkerKind::End),
                    _ => None,
                };
                ev.marker = kind
                    .filter(|_| copy == 0)
                    .map(|kind| Marker { channel: 1, kind });
                events.push(ev);
            }
        }
        events
    }

    /// Folds `words` into an FNV-1a digest.
    fn fnv(mut h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
        for word in words {
            for byte in word.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// Every sealed slice's id, extent, window ends, session gaps, both
    /// low watermarks and partials, floats by their bits and keys in
    /// order.
    fn digest(h: u64, slices: &[SealedSlice]) -> u64 {
        slices.iter().fold(h, |mut h, s| {
            h = fnv(h, [s.id, s.start_ts, s.end_ts]);
            h = fnv(h, [s.low_watermark, s.low_watermark_ts]);
            for e in &s.ends {
                h = fnv(h, [e.query, e.first_slice, e.last_slice]);
                h = fnv(h, [e.start_ts, e.end_ts]);
            }
            for g in &s.session_gaps {
                h = fnv(h, [u64::MAX, g.query, g.gap_start, g.gap_end]);
            }
            for bundles in &s.data.per_selection {
                let mut keyed: Vec<_> = bundles.iter().collect();
                keyed.sort_by_key(|(key, _)| **key);
                for (key, b) in keyed {
                    let floats = [b.sum, b.product, b.sum_sq, b.min, b.max];
                    let flags = u64::from(b.seen) << 1 | u64::from(b.sorted);
                    h = fnv(h, [u64::from(*key), b.count, flags]);
                    h = fnv(h, floats.iter().chain(&b.values).map(|v| v.to_bits()));
                }
            }
            h
        })
    }

    /// Removes query 1 (`removed`'s window class, a median) from a group
    /// that keeps a tumbling time window and a tumbling count window, at
    /// `moment`, over [`removal_stream`] fed one event at a time or in
    /// runs, with a watermark at 418 ms, one at 1 000 ms and a flush.
    /// Digests every sealed slice, what `remove_query` returned, and the
    /// next punctuation and clear frontiers right after the removal and
    /// at the end.
    fn removal_digest(removed: Removed, immediate: bool, moment: Moment, runs: bool) -> u64 {
        let window = match removed {
            Removed::Tumbling => WindowSpec::tumbling_time(60),
            Removed::Sliding => WindowSpec::sliding_time(90, 30),
            Removed::Session => WindowSpec::session(25),
            Removed::Count => WindowSpec::sliding_count(6, 3),
            Removed::UserDefined => Ok(WindowSpec::user_defined(1)),
        };
        let tumbling = WindowSpec::tumbling_time(100).unwrap();
        let counted = WindowSpec::tumbling_count(7).unwrap();
        let members = vec![
            (Query::new(1, window.unwrap(), AggFunction::Median), 0),
            (Query::new(2, tumbling, AggFunction::Sum), 0),
            (Query::new(3, counted, AggFunction::Variance), 0),
        ];
        let mut s = GroupSlicer::new(QueryGroup::build(0, members, vec![Predicate::True]));
        let stream = removal_stream();
        let after = |ts: Timestamp| 1 + stream.iter().position(|ev| ev.ts == ts).unwrap();
        let at = match moment {
            Moment::BeforeFirstEvent => 0,
            Moment::MidWindow => after(85),
            Moment::OnTimePunctuation => after(300),
            Moment::OnCountBoundary => 42,
        };
        let watermark = stream.iter().position(|ev| ev.ts > 418).unwrap();
        let state = |s: &GroupSlicer, h: u64| {
            let clears = s.unfixed_clears(0).into_iter();
            let clears = clears.flat_map(|(qi, ts)| [qi as u64, ts]);
            let next = s.next_punctuation().unwrap_or(u64::MAX);
            fnv(h, clears.chain([next]))
        };
        let (mut out, mut h, mut from) = (Vec::new(), 0xcbf2_9ce4_8422_2325, 0);
        let mut feed = |s: &mut GroupSlicer, out: &mut Vec<SealedSlice>, to: usize| {
            if runs {
                s.on_run(&stream[from..to], out);
            } else {
                for ev in &stream[from..to] {
                    s.on_event(ev, out);
                }
            }
            from = to;
        };
        let mut points = [(at, true), (watermark, false)];
        points.sort();
        for (pos, remove) in points {
            feed(&mut s, &mut out, pos);
            if remove {
                h = fnv(h, [u64::from(s.remove_query(1, immediate))]);
                h = state(&s, h);
            } else {
                s.on_watermark(418, &mut out);
            }
        }
        feed(&mut s, &mut out, stream.len());
        s.on_watermark(1_000, &mut out);
        s.flush(&mut out);
        digest(state(&s, h), &out)
    }

    /// Runtime removal of every window class, immediate and draining, at
    /// four moments of the stream, pinned by digest: the removal
    /// differentials compare engines that all run this slicer.
    #[test]
    fn removal_is_pinned_per_window_class_mode_and_moment() {
        use Moment::*;
        use Removed::*;
        #[rustfmt::skip]
        let want = [
            (Tumbling, true, BeforeFirstEvent, 0xab91453d0c3a6350),
            (Tumbling, true, MidWindow, 0x4a43aa949e1579f0),
            (Tumbling, true, OnTimePunctuation, 0x77c58c018c60dfe2),
            (Tumbling, true, OnCountBoundary, 0x4a074ed710d0b7e),
            (Tumbling, false, BeforeFirstEvent, 0xab91453d0c3a6350),
            (Tumbling, false, MidWindow, 0xb69c8049a1910562),
            (Tumbling, false, OnTimePunctuation, 0xec5b78904e6a8ea2),
            (Tumbling, false, OnCountBoundary, 0xb2b7d00276b754c0),
            (Sliding, true, BeforeFirstEvent, 0xab91453d0c3a6350),
            (Sliding, true, MidWindow, 0xfd03222a2029f566),
            (Sliding, true, OnTimePunctuation, 0xd2fef710539a639),
            (Sliding, true, OnCountBoundary, 0x5563b98ba6fdde07),
            (Sliding, false, BeforeFirstEvent, 0xab91453d0c3a6350),
            (Sliding, false, MidWindow, 0xb0a1afcbe7dc12bd),
            (Sliding, false, OnTimePunctuation, 0xd3f2c31957243ab4),
            (Sliding, false, OnCountBoundary, 0x6d98d3a6cd2894b6),
            (Session, true, BeforeFirstEvent, 0xab91453d0c3a6350),
            (Session, true, MidWindow, 0x20b58e08407c98ac),
            (Session, true, OnTimePunctuation, 0x49972bc2dc56b2e9),
            (Session, true, OnCountBoundary, 0xb49ba1f280bd8c5b),
            (Session, false, BeforeFirstEvent, 0xab91453d0c3a6350),
            (Session, false, MidWindow, 0xc8bab6e27ae392bb),
            (Session, false, OnTimePunctuation, 0xe87ef99c02655fb),
            (Session, false, OnCountBoundary, 0x9732bb68063212ca),
            (Count, true, BeforeFirstEvent, 0xab91453d0c3a6350),
            (Count, true, MidWindow, 0x5d35ddf9e8e108ab),
            (Count, true, OnTimePunctuation, 0x3e2356abfaaa97e),
            (Count, true, OnCountBoundary, 0xabdb397b35a5c792),
            (Count, false, BeforeFirstEvent, 0xab91453d0c3a6350),
            (Count, false, MidWindow, 0xc6ebbc23934d3195),
            (Count, false, OnTimePunctuation, 0xfba4b3a8b654ac74),
            (Count, false, OnCountBoundary, 0x7cb41c0f8ee3569c),
            (UserDefined, true, BeforeFirstEvent, 0xab91453d0c3a6350),
            (UserDefined, true, MidWindow, 0x658c13af91ccd347),
            (UserDefined, true, OnTimePunctuation, 0x701722b56847c54d),
            (UserDefined, true, OnCountBoundary, 0x2cadf8dcf73ba6b9),
            (UserDefined, false, BeforeFirstEvent, 0xab91453d0c3a6350),
            (UserDefined, false, MidWindow, 0x6f48fa5e088a9aa6),
            (UserDefined, false, OnTimePunctuation, 0x701722b56847c54d),
            (UserDefined, false, OnCountBoundary, 0x5bc7ad738f68bdfa),
        ];
        let moments = [
            BeforeFirstEvent,
            MidWindow,
            OnTimePunctuation,
            OnCountBoundary,
        ];
        let mut got = Vec::new();
        for removed in [Tumbling, Sliding, Session, Count, UserDefined] {
            for immediate in [true, false] {
                for moment in moments {
                    let by_event = removal_digest(removed, immediate, moment, false);
                    let by_run = removal_digest(removed, immediate, moment, true);
                    assert_eq!(by_run, by_event, "{removed:?} {immediate} {moment:?}");
                    got.push((removed, immediate, moment, by_event));
                }
            }
        }
        let table: Vec<String> = got
            .iter()
            .map(|(r, i, m, d)| format!("({r:?}, {i}, {m:?}, {d:#x}),"))
            .collect();
        assert_eq!(got, want, "\n{}", table.join("\n"));
    }
}
