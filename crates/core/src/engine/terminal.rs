//! The terminal half of a query-group: where its windows are put
//! together and its results leave (paper Sections 4.3 and 5.1).
//!
//! A group is sliced on the caller's thread, on shard threads or on local
//! nodes, and ends in one place: the sequential engine, the sharded
//! collector or the cluster root. What runs there follows from the group
//! alone, so it is decided and written here once: [`GroupPlan`] is the
//! one function from a group (or a window) to how it runs, and
//! [`GroupTerminal`] what ends it under each plan — at every level the
//! one [`Assembler`], which takes window ends as the plan says.
//!
//! **Runtime removal** (Section 3.2) has one answer at every level, a
//! function of the window and the event time `at` the removal takes
//! effect at ([`crate::engine::merge::last_window_end`]): immediate — the
//! query's windows ending at or before `at` still emit; draining — so do
//! those that had started by then; nothing later. A slicer told to remove
//! while its stream stands at `at` does that by construction; the
//! assembler of an aligned group, which derives window ends itself, reads
//! it off the slice stream; the window ends of other groups are their
//! sources' to stop sending.

use crate::engine::assembler::Assembler;
use crate::engine::group::QueryGroup;
use crate::engine::slice::SealedSlice;
use crate::engine::slicer::GroupSlicer;
use crate::event::Event;
use crate::metrics::EngineMetrics;
use crate::obs::trace::TraceRecorder;
use crate::obs::{names, MetricsRegistry};
use crate::query::{QueryId, QueryResult};
use crate::time::Timestamp;
use crate::window::{WindowKind, WindowSpec};

/// How a query-group runs between its slicers and its terminal, ordered
/// by how much of the work only the terminal can do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum GroupPlan {
    /// Fixed time windows only: every source punctuates at the same
    /// spec-derived instants, so partials merge by slice end and the
    /// terminal assembles by time range.
    Aligned,
    /// Session or user-defined windows (fixed time windows may share the
    /// group): window ends are data-driven and differ per source, so
    /// partials merge per window and the terminal assembles
    /// self-contained windows.
    Unfixed,
    /// Count-measured windows: only an ordered view of the whole stream
    /// can place their boundaries, so the terminal slices the raw events
    /// itself.
    Raw,
}

impl GroupPlan {
    /// The plan a single window asks for.
    pub fn of_window(window: &WindowSpec) -> Self {
        match window.kind {
            _ if window.has_precomputable_puncts() => GroupPlan::Aligned,
            WindowKind::Session { .. } | WindowKind::UserDefined { .. } => GroupPlan::Unfixed,
            _ => GroupPlan::Raw,
        }
    }

    /// The plan of a group: the most demanding of its windows'.
    pub fn of(group: &QueryGroup) -> Self {
        let plans = group
            .queries
            .iter()
            .map(|cq| Self::of_window(&cq.query.window));
        plans.max().unwrap_or(GroupPlan::Aligned)
    }
}

/// The terminal of a group whose events arrive raw and in order: a
/// slicer feeding an assembler. The sequential engine drives the two
/// halves itself, per event.
#[derive(Debug, Clone)]
pub struct RawTerminal {
    pub(super) slicer: GroupSlicer,
    assembler: Assembler,
    /// Slices sealed and not yet assembled.
    pub(super) sealed: Vec<SealedSlice>,
}

impl RawTerminal {
    /// A terminal slicing and assembling `group`.
    pub fn new(group: QueryGroup) -> Self {
        Self {
            assembler: Assembler::new(&group),
            slicer: GroupSlicer::new(group),
            sealed: Vec::new(),
        }
    }

    /// Assembles every sealed slice: the one slicer → assembler pump.
    pub fn assemble(&mut self, out: &mut Vec<QueryResult>) {
        for slice in self.sealed.drain(..) {
            self.assembler.on_slice(slice, out);
        }
    }

    /// Removes `query` from the slicer and — where the assembler derives
    /// window ends itself — from the assembler, at the event time the
    /// slicer's stream stands at. Before its first event the stream
    /// stands nowhere and the slicer drops the query outright, which is
    /// an immediate removal at 0. Returns `false` if the slicer does not
    /// (or no longer) run the query.
    pub(super) fn remove_query(&mut self, query: QueryId, immediate: bool) -> bool {
        if !self.slicer.remove_query(query, immediate) {
            return false;
        }
        let (at, immediate) = match self.slicer.reached() {
            Some(at) => (at, immediate),
            None => (0, true),
        };
        self.assembler.remove_query(query, at, immediate);
        true
    }

    /// Ingests one in-order event.
    pub fn on_event(&mut self, ev: &Event, out: &mut Vec<QueryResult>) {
        self.slicer.on_event(ev, &mut self.sealed);
        self.assemble(out);
    }

    /// Advances event time to `ts` without data.
    pub fn on_watermark(&mut self, ts: Timestamp, out: &mut Vec<QueryResult>) {
        self.slicer.on_watermark(ts, &mut self.sealed);
        self.assemble(out);
    }

    /// Enables causal slice tracing on the slicer and the assembler, each
    /// on its own ring of `recorder`'s collector.
    pub fn set_recorder(&mut self, recorder: TraceRecorder) {
        self.slicer.set_recorder(recorder.clone());
        self.assembler.set_recorder(recorder);
    }

    /// Adds this terminal's counters — its slicer's included — to `m` and
    /// the `(slices, suffix-cache bundles)` it retains to `retained`.
    pub fn roll_up(&self, m: &mut EngineMetrics, retained: &mut (usize, usize)) {
        m.absorb(self.slicer.metrics());
        add(m, retained, &self.assembler);
    }
}

/// Adds `a`'s results and merges to `m` and the state it retains to
/// `retained`.
fn add(m: &mut EngineMetrics, retained: &mut (usize, usize), a: &Assembler) {
    m.results += a.results_emitted();
    m.merges += a.merges();
    retained.0 += a.retained_slices();
    retained.1 += a.cached_bundles();
}

/// Publishes an engine's rolled-up metrics as cumulative `engine.*`
/// counters, next to gauges of the state its terminals retain.
pub(crate) fn publish(m: &EngineMetrics, retained: (usize, usize), registry: &MetricsRegistry) {
    m.publish(registry, "engine");
    let gauge = |name, level: usize| registry.gauge(name).set(level as i64);
    gauge(names::ENGINE_ASSEMBLER_RETAINED_SLICES, retained.0);
    gauge(names::ENGINE_ASSEMBLER_CACHED_BUNDLES, retained.1);
}

/// What ends a query-group, by its [`GroupPlan`].
#[derive(Debug)]
pub enum GroupTerminal {
    /// Assembles the group's merged slice stream: the slices an aligned
    /// merger releases, or the self-contained windows of an unfixed one.
    Merged(Box<Assembler>),
    /// Slices and assembles the group's ordered raw events.
    Raw(Box<RawTerminal>),
}

impl GroupTerminal {
    /// The terminal that ends `group` under `plan`.
    pub fn new(plan: GroupPlan, group: &QueryGroup) -> Self {
        match plan {
            GroupPlan::Aligned | GroupPlan::Unfixed => {
                GroupTerminal::Merged(Box::new(Assembler::new(group)))
            }
            GroupPlan::Raw => GroupTerminal::Raw(Box::new(RawTerminal::new(group.clone()))),
        }
    }

    /// Assembles one slice of the group's merged stream (a no-op for a
    /// terminal that slices raw events itself).
    pub fn on_slice(&mut self, slice: SealedSlice, out: &mut Vec<QueryResult>) {
        if let GroupTerminal::Merged(a) = self {
            a.on_slice(slice, out);
        }
    }

    /// Ingests one in-order raw event (a no-op unless the terminal slices).
    pub fn on_event(&mut self, ev: &Event, out: &mut Vec<QueryResult>) {
        if let GroupTerminal::Raw(raw) = self {
            raw.on_event(ev, out);
        }
    }

    /// Advances event time without data (a no-op unless the terminal
    /// slices: merged streams carry their own progress).
    pub fn on_watermark(&mut self, ts: Timestamp, out: &mut Vec<QueryResult>) {
        if let GroupTerminal::Raw(raw) = self {
            raw.on_watermark(ts, out);
        }
    }

    /// Removes `query` at event time `at` (module docs). A merged-stream
    /// terminal may be told any time before its slice stream passes `at`
    /// (an unfixed group's keeps assembling whatever its merger still
    /// releases); a slicing one is advanced to `at` first, so it must be
    /// told when its input stands there.
    pub fn remove_query(
        &mut self,
        query: QueryId,
        at: Timestamp,
        immediate: bool,
        out: &mut Vec<QueryResult>,
    ) {
        match self {
            GroupTerminal::Merged(a) => {
                a.remove_query(query, at, immediate);
            }
            GroupTerminal::Raw(raw) => {
                raw.on_watermark(at, out);
                raw.remove_query(query, immediate);
            }
        }
    }

    /// Enables causal slice tracing.
    pub fn set_recorder(&mut self, recorder: TraceRecorder) {
        match self {
            GroupTerminal::Merged(a) => a.set_recorder(recorder),
            GroupTerminal::Raw(raw) => raw.set_recorder(recorder),
        }
    }

    /// [`RawTerminal::roll_up`] for any terminal.
    pub fn roll_up(&self, m: &mut EngineMetrics, retained: &mut (usize, usize)) {
        match self {
            GroupTerminal::Merged(a) => add(m, retained, a),
            GroupTerminal::Raw(raw) => raw.roll_up(m, retained),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggFunction;
    use crate::engine::merge::last_window_end;
    use crate::query::Query;

    #[test]
    fn a_group_takes_the_most_demanding_plan_of_its_windows() {
        let q = |id, window: WindowSpec| (Query::new(id, window, AggFunction::Sum), 0);
        let tumbling = WindowSpec::tumbling_time(100).unwrap();
        let sliding = WindowSpec::sliding_time(200, 50).unwrap();
        let session = WindowSpec::session(30).unwrap();
        let counted = WindowSpec::sliding_count(10, 5).unwrap();
        let plan = |windows: &[WindowSpec]| {
            let members = windows.iter().enumerate().map(|(i, w)| q(i as u64, *w));
            let predicates = vec![crate::predicate::Predicate::True];
            GroupPlan::of(&QueryGroup::build(0, members.collect(), predicates))
        };
        assert_eq!(plan(&[tumbling, sliding]), GroupPlan::Aligned);
        assert_eq!(plan(&[tumbling, session]), GroupPlan::Unfixed);
        assert_eq!(plan(&[WindowSpec::user_defined(1)]), GroupPlan::Unfixed);
        assert_eq!(plan(&[session, counted, tumbling]), GroupPlan::Raw);
    }

    /// The rule against the slicer it describes: remove the sliding query
    /// at every event time of a stream, in both modes, and the windows the
    /// slicer still ends are those up to `last_window_end` — and so are
    /// those a terminal over the same stream emits, whose assembler
    /// derives the (aligned) group's window ends itself.
    #[test]
    fn the_retirement_rule_is_what_a_slicer_does() {
        let windows = [
            WindowSpec::tumbling_time(40).unwrap(),
            WindowSpec::sliding_time(100, 30).unwrap(),
            WindowSpec::sliding_time(60, 60).unwrap(),
        ];
        for window in windows {
            for (at, immediate) in (0..260u64).flat_map(|at| [(at, true), (at, false)]) {
                let queries = vec![
                    Query::new(1, WindowSpec::tumbling_time(10).unwrap(), AggFunction::Sum),
                    Query::new(2, window, AggFunction::Sum),
                ];
                let mut groups = crate::engine::QueryAnalyzer::default()
                    .analyze(queries)
                    .unwrap();
                let group = groups.remove(0);
                let mut slicer = GroupSlicer::new(group.clone());
                let mut terminal = RawTerminal::new(group);
                let (mut sealed, mut out) = (Vec::new(), Vec::new());
                for ts in 0..=at {
                    let ev = Event::new(ts, 0, 1.0);
                    slicer.on_event(&ev, &mut sealed);
                    terminal.on_event(&ev, &mut out);
                }
                assert!(slicer.remove_query(2, immediate));
                assert!(terminal.remove_query(2, immediate));
                slicer.on_watermark(1_000, &mut sealed);
                terminal.on_watermark(1_000, &mut out);
                let ends = sealed.iter().flat_map(|s| &s.ends);
                let ended = ends.filter(|e| e.query == 2).map(|e| e.end_ts);
                let emitted = out.iter().filter(|r| r.query == 2).map(|r| r.window_end);
                let rule = last_window_end(&window, at, immediate);
                let context = format!("{window:?} removed at {at}, immediate={immediate}");
                assert_eq!(ended.max().unwrap_or(0), rule, "{context}: slicer");
                assert_eq!(emitted.max().unwrap_or(0), rule, "{context}: terminal");
            }
        }
    }
}
