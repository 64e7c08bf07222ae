//! Harness-side spans around calls into the layers' public functions.
//!
//! A span is (layer, lane, start, end, parent, id). Spans nest by call
//! order on the one replay thread, live in memory until the run ends, and
//! are written out as Chrome-trace JSON. A layer's *self time* is its
//! spans' time minus the time their child spans cover; with recording off
//! `enter`/`exit` read no clock, which is what `trace.overhead_ratio`
//! compares against.

use std::time::Instant;

use crate::json::Json;

/// Recording stops (and `dropped` counts) past this many spans.
pub const MAX_SPANS: usize = 200_000;

/// Which replay a span belongs to; the Chrome trace shows one track each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lane {
    /// `QueryAnalyzer::analyze` repeats.
    Setup,
    /// Sequential chain: reorder → slicers → assemblers.
    Seq,
    /// Sharded chain: `ShardedSlicer` → `FixedAssembler` / `Assembler`.
    Sharded,
    /// Single-thread simulation of the cross-shard unfixed merge.
    ShardMerge,
    /// Decentralized chain: locals → codec → link → root mergers.
    Cluster,
    /// Worker-level replay: `LocalWorker` → `IntermediateWorker` → `RootWorker`.
    Nodes,
    /// `OperatorBundle` micro-replay over captured bundles.
    Aggregate,
}

impl Lane {
    fn label(self) -> &'static str {
        match self {
            Lane::Setup => "setup",
            Lane::Seq => "chain: sequential",
            Lane::Sharded => "chain: sharded",
            Lane::ShardMerge => "chain: shard merge (simulated)",
            Lane::Cluster => "chain: star(2) cluster",
            Lane::Nodes => "chain: three_tier(1,2) workers",
            Lane::Aggregate => "micro: operator bundles",
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer (= metric prefix) the timed call belongs to.
    pub layer: &'static str,
    /// Replay it was recorded in.
    pub lane: Lane,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Slice, chunk or frame number the call worked on.
    pub id: u64,
}

/// Handle returned by [`Spans::enter`], consumed by [`Spans::exit`].
#[derive(Debug)]
#[must_use = "a span must be exited"]
pub struct Token(Option<u32>);

/// The span recorder.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    lane: Lane,
    spans: Vec<Span>,
    stack: Vec<u32>,
    /// Spans not recorded because [`MAX_SPANS`] was reached.
    pub dropped: u64,
}

impl Spans {
    /// A recorder; with `enabled == false` every call is a no-op.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            lane: Lane::Setup,
            spans: Vec::new(),
            stack: Vec::new(),
            dropped: 0,
        }
    }

    /// Selects the lane of the spans entered from now on.
    pub fn set_lane(&mut self, lane: Lane) {
        debug_assert!(self.stack.is_empty(), "lane change inside a span");
        self.lane = lane;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span of `layer` working on `id`, nested in the innermost
    /// open span.
    #[inline]
    pub fn enter(&mut self, layer: &'static str, id: u64) -> Token {
        if !self.enabled {
            return Token(None);
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return Token(None);
        }
        let index = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            lane: self.lane,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            id,
        });
        self.stack.push(index);
        Token(Some(index))
    }

    /// Closes the span `token` opened. Spans close innermost first.
    #[inline]
    pub fn exit(&mut self, token: Token) {
        let Some(index) = token.0 else { return };
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(index), "spans must close innermost first");
        self.spans[index as usize].end_ns = end_ns;
    }

    /// The recorded spans, in entry order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time and call count per `(lane, layer)`, in first-seen order.
    pub fn self_times(&self) -> Vec<LayerTime> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let child = span.end_ns - span.start_ns;
                let slot = &mut self_ns[parent as usize];
                *slot = slot.saturating_sub(child);
            }
        }
        let mut out: Vec<LayerTime> = Vec::new();
        for (span, self_ns) in self.spans.iter().zip(self_ns) {
            let total_ns = span.end_ns - span.start_ns;
            match out
                .iter_mut()
                .find(|t| t.lane == span.lane && t.layer == span.layer)
            {
                Some(t) => {
                    t.self_ns += self_ns;
                    t.total_ns += total_ns;
                    t.calls += 1;
                }
                None => out.push(LayerTime {
                    lane: span.lane,
                    layer: span.layer,
                    self_ns,
                    total_ns,
                    calls: 1,
                }),
            }
        }
        out
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one
    /// complete event per span, one track per lane.
    pub fn to_chrome_json(&self) -> Json {
        let mut events = Vec::with_capacity(self.spans.len() + 8);
        let mut lanes: Vec<Lane> = self.spans.iter().map(|s| s.lane).collect();
        lanes.sort();
        lanes.dedup();
        for lane in lanes {
            events.push(Json::object([
                ("name", Json::str("thread_name")),
                ("ph", Json::str("M")),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(lane as u8 as f64)),
                ("args", Json::object([("name", Json::str(lane.label()))])),
            ]));
        }
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or(Json::Null, |p| Json::Num(f64::from(p)));
            events.push(Json::object([
                ("name", Json::str(span.layer)),
                ("ph", Json::str("X")),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(span.lane as u8 as f64)),
                ("ts", Json::Num(span.start_ns as f64 / 1e3)),
                ("dur", Json::Num((span.end_ns - span.start_ns) as f64 / 1e3)),
                (
                    "args",
                    Json::object([
                        ("span", Json::Num(index as f64)),
                        ("parent", parent),
                        ("id", Json::Num(span.id as f64)),
                    ]),
                ),
            ]));
        }
        Json::object([
            ("displayTimeUnit", Json::str("ns")),
            ("traceEvents", Json::Arr(events)),
        ])
    }
}

/// Aggregated time of one layer within one lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerTime {
    /// Replay.
    pub lane: Lane,
    /// Layer.
    pub layer: &'static str,
    /// Time in the layer's spans not covered by child spans.
    pub self_ns: u64,
    /// Time in the layer's spans, children included.
    pub total_ns: u64,
    /// Number of spans.
    pub calls: u64,
}

/// Looks up `(lane, layer)`; zeros when the layer never ran.
pub fn layer_time(times: &[LayerTime], lane: Lane, layer: &'static str) -> LayerTime {
    times
        .iter()
        .find(|t| t.lane == lane && t.layer == layer)
        .cloned()
        .unwrap_or(LayerTime {
            lane,
            layer,
            self_ns: 0,
            total_ns: 0,
            calls: 0,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder with hand-written spans, so the arithmetic is exact.
    fn recorder(spans: Vec<Span>) -> Spans {
        let mut r = Spans::new(true);
        r.spans = spans;
        r
    }

    fn span(layer: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            layer,
            lane: Lane::Cluster,
            start_ns,
            end_ns,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_is_span_time_minus_child_spans() {
        // root [0,100) ⊃ a [10,40) ⊃ b [20,30); root ⊃ a [50,70).
        let r = recorder(vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 20, 30, Some(1)),
            span("a", 50, 70, Some(0)),
        ]);
        let times = r.self_times();
        let root = layer_time(&times, Lane::Cluster, "root");
        let a = layer_time(&times, Lane::Cluster, "a");
        let b = layer_time(&times, Lane::Cluster, "b");
        assert_eq!((root.self_ns, root.total_ns, root.calls), (50, 100, 1));
        assert_eq!((a.self_ns, a.total_ns, a.calls), (40, 50, 2));
        assert_eq!((b.self_ns, b.total_ns, b.calls), (10, 10, 1));
        // Self times partition the root span.
        assert_eq!(root.self_ns + a.self_ns + b.self_ns, 100);
        // Other lanes and unknown layers read as zero.
        assert_eq!(layer_time(&times, Lane::Seq, "a").calls, 0);
        assert_eq!(layer_time(&times, Lane::Cluster, "nope").self_ns, 0);
    }

    #[test]
    fn enter_and_exit_nest_and_disabled_records_nothing() {
        let mut r = Spans::new(true);
        r.set_lane(Lane::Seq);
        let outer = r.enter("outer", 1);
        let inner = r.enter("inner", 2);
        r.exit(inner);
        r.exit(outer);
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[1].lane, Lane::Seq);

        let mut off = Spans::new(false);
        let t = off.enter("x", 0);
        off.exit(t);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn recording_stops_at_the_cap() {
        let mut r = recorder(vec![span("x", 0, 1, None); MAX_SPANS]);
        let t = r.enter("y", 0);
        r.exit(t);
        assert_eq!(r.spans().len(), MAX_SPANS);
        assert_eq!(r.dropped, 1);
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let r = recorder(vec![
            span("root", 0, 2_000, None),
            span("a", 500, 1_500, Some(0)),
        ]);
        let json = r.to_chrome_json();
        let parsed = Json::parse(&json.to_line()).unwrap();
        let Some(Json::Arr(events)) = parsed.get("traceEvents") else {
            panic!("traceEvents missing");
        };
        let complete: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(complete.len(), 2);
        assert_eq!(complete[1].get("name").and_then(Json::as_str), Some("a"));
        assert_eq!(complete[1].get("ts").and_then(Json::as_f64), Some(0.5));
        assert_eq!(complete[1].get("dur").and_then(Json::as_f64), Some(1.0));
        let parent = complete[1].get("args").and_then(|a| a.get("parent"));
        assert_eq!(parent.and_then(Json::as_f64), Some(0.0));
    }
}
