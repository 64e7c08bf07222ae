//! Child recovery protocol: sequence gaps, NACK-driven retransmission,
//! liveness suspicion, and bounded escalation to loss.
//!
//! The protocol *decisions* live in [`crate::protocol::ChildProtocol`], a
//! deterministic, time-free state machine that the model check in
//! `crates/net/tests/model.rs` drives exhaustively. This module is the IO
//! shell around it: channel selects, NACK pacing timers, counters, and
//! trace spans.
//!
//! PR 1 gave the cluster *degradation*: a child whose link produced one
//! undecodable frame was flushed on its behalf and reported lost. This
//! module replaces "first bad frame ⇒ lost forever" with a real protocol
//! over the v3 wire format (see [`crate::codec`]):
//!
//! * every frame carries a sequence number and a checksum, so the
//!   receiving pump detects **gaps** (dropped frames), **duplicates**
//!   (redelivered frames), and **corruption** (checksum mismatch) instead
//!   of trusting the channel;
//! * on a gap or a corrupt frame the pump sends a [`Control::Nack`] on
//!   the link's control backchannel; the sender retransmits from its
//!   bounded history ([`crate::link::LinkSender`]);
//! * unanswered NACKs are retried on a timer
//!   ([`RecoveryConfig::nack_grace`]) up to
//!   [`RecoveryConfig::retry_budget`] times per gap — only then does the
//!   child transition to `Lost` and get flushed on its behalf (exactly
//!   once, as before);
//! * the existing watermark clock doubles as a liveness signal: a child
//!   whose watermark trails the furthest sibling by more than
//!   `SUSPECT_LAG` (10 s of event time) is marked *Suspect* (an advisory
//!   state that clears by itself — it never escalates without a gap).
//!
//! Per-child state machine:
//!
//! ```text
//!            watermark lags                 gap / corrupt frame
//! Healthy ─────────────────▶ Suspect      ┌──────────────────▶ Recovering
//!    ▲ ◀───────────────────────┘          │                        │
//!    │      watermark catches up          │   retransmit fills gap │
//!    ├────────────────────────────────────┼────────────────────────┘
//!    │                                    │
//!    └── any state ──── retry budget exhausted / disconnect with gap ──▶ Lost
//! ```
//!
//! Every transition is counted (`net.recovery.*`, see [`RecoveryStats`])
//! and recorded as a trace span under a synthetic per-child trace id, so
//! chaos runs are visible in the same Perfetto timeline as slice
//! provenance.
//!
//! Frames encoded without a sequence number (standalone links outside a
//! cluster) bypass all of this, and one undecodable frame on a link
//! without a control channel loses the child immediately.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam_channel::Select;
use desis_core::obs::prof::{self, ProfHandle, Stage};
use desis_core::obs::trace::{SpanKind, TraceId, TraceRecorder};
use desis_core::obs::{names, Counter, Gauge, MetricsRegistry};
use desis_core::time::{DurationMs, Timestamp};

use crate::link::LinkReceiver;
use crate::message::Message;
use crate::protocol::{Action, ChildProtocol, ProtoEvent, ProtocolLimits};
use crate::topology::NodeId;

/// Messages on a link's control backchannel (receiver → sender).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// The receiver is missing every frame from sequence `from` onward:
    /// retransmit them from history.
    Nack {
        /// First missing sequence number.
        from: u64,
    },
    /// The receiver delivered the final `Flush`; the sender may stop
    /// lingering for retransmit requests.
    Done,
}

/// Out-of-order frames the receiver buffers per child while a gap is
/// open; overflowing the buffer loses the child.
const REORDER_CAP: usize = 256;

/// Watermark lag (event-time ms) behind the furthest sibling at which a
/// child is marked Suspect.
const SUSPECT_LAG: DurationMs = 10_000;

/// Tunables of the recovery protocol's receive side.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// NACKs sent per gap before the child is declared lost.
    pub retry_budget: u32,
    /// How long to wait for a NACK to be answered before re-sending it
    /// (also the pump's idle tick and the sender's linger probe period).
    pub nack_grace: Duration,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            retry_budget: 4,
            nack_grace: Duration::from_millis(200),
        }
    }
}

impl RecoveryConfig {
    /// The time-free subset handed to [`ChildProtocol`].
    fn limits(&self) -> ProtocolLimits {
        ProtocolLimits {
            retry_budget: self.retry_budget,
            reorder_cap: REORDER_CAP,
        }
    }
}

/// `net.recovery.*` counters: what the recovery protocol did during a
/// run. Gap/NACK/loss counts are deterministic for a deterministic fault
/// placement; duplicate and re-NACK counts can vary with thread timing.
#[derive(Debug)]
pub struct RecoveryStats {
    /// Sequence gaps detected (`net.recovery.gaps`).
    pub gaps: Arc<Counter>,
    /// NACKs sent, including re-sends (`net.recovery.nacks`).
    pub nacks: Arc<Counter>,
    /// Redelivered frames discarded (`net.recovery.duplicates_dropped`).
    pub duplicates_dropped: Arc<Counter>,
    /// Gaps closed by retransmission (`net.recovery.recovered`).
    pub recovered: Arc<Counter>,
    /// Children lost for good and flushed on their behalf
    /// (`net.recovery.lost`).
    pub lost: Arc<Counter>,
    /// Healthy→Suspect transitions (`net.recovery.suspects`).
    pub suspects: Arc<Counter>,
    /// Suspect→Healthy transitions (`net.recovery.suspect_cleared`).
    pub suspect_cleared: Arc<Counter>,
}

impl RecoveryStats {
    /// Counters registered in `registry` under `net.recovery.*`.
    pub fn registered(registry: &MetricsRegistry) -> Arc<Self> {
        Arc::new(RecoveryStats {
            gaps: registry.counter(names::RECOVERY_GAPS),
            nacks: registry.counter(names::RECOVERY_NACKS),
            duplicates_dropped: registry.counter(names::RECOVERY_DUPLICATES_DROPPED),
            recovered: registry.counter(names::RECOVERY_RECOVERED),
            lost: registry.counter(names::RECOVERY_LOST),
            suspects: registry.counter(names::RECOVERY_SUSPECTS),
            suspect_cleared: registry.counter(names::RECOVERY_SUSPECT_CLEARED),
        })
    }

    /// Detached counters (not visible in any registry), for tests.
    pub fn detached() -> Arc<Self> {
        Arc::new(RecoveryStats {
            gaps: Arc::new(Counter::default()),
            nacks: Arc::new(Counter::default()),
            duplicates_dropped: Arc::new(Counter::default()),
            recovered: Arc::new(Counter::default()),
            lost: Arc::new(Counter::default()),
            suspects: Arc::new(Counter::default()),
            suspect_cleared: Arc::new(Counter::default()),
        })
    }
}

/// Everything one pump loop needs to run the recovery protocol: the
/// tunables, the shared counters, and an optional trace recorder for
/// transition spans.
pub(crate) struct RecoveryCtx {
    pub(crate) config: RecoveryConfig,
    pub(crate) stats: Arc<RecoveryStats>,
    pub(crate) recorder: Option<TraceRecorder>,
}

impl RecoveryCtx {
    pub(crate) fn new(
        config: RecoveryConfig,
        stats: Arc<RecoveryStats>,
        recorder: Option<TraceRecorder>,
    ) -> Self {
        RecoveryCtx {
            config,
            stats,
            recorder,
        }
    }

    /// Defaults with detached counters and no tracing, for tests.
    #[cfg(test)]
    pub(crate) fn detached() -> Self {
        Self::new(RecoveryConfig::default(), RecoveryStats::detached(), None)
    }
}

/// Ingress instrumentation of one pump loop (one per node role), writing
/// into the run's [`MetricsRegistry`]: received bytes, message counts by
/// kind, the high-water inbound queue depth, and undecodable frames.
pub(crate) struct PumpObs {
    /// The registry's lane named after the node role ("intermediate",
    /// "root", …); the pump loop times itself on a clone.
    lane: Option<ProfHandle>,
    ingress_bytes: Arc<Counter>,
    msgs: [(&'static str, Arc<Counter>); 5],
    other_msgs: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    queue_depth_max: Arc<Gauge>,
    pub(crate) decode_errors: Arc<Counter>,
}

impl PumpObs {
    pub(crate) fn new(registry: &Arc<MetricsRegistry>, role: &str) -> Self {
        let tag_counter = |tag: &str| registry.counter(&names::ingress_msgs(role, tag));
        Self {
            lane: registry.lane(role),
            ingress_bytes: registry.counter(&names::ingress_bytes(role)),
            msgs: names::MSG_TAGS.map(|tag| (tag, tag_counter(tag))),
            other_msgs: tag_counter(names::TAG_OTHER),
            queue_depth: registry.gauge(&names::queue_depth(role)),
            queue_depth_max: registry.gauge(&names::queue_depth_max(role)),
            decode_errors: registry.counter(&names::decode_errors(role)),
        }
    }

    fn on_frame(&self, len: usize, tag: &str, queued: usize) {
        self.ingress_bytes.add(len as u64);
        match self.msgs.iter().find(|(t, _)| *t == tag) {
            Some((_, c)) => c.inc(),
            None => self.other_msgs.inc(),
        }
        // Instantaneous level for the flight recorder, high-water for the
        // end-of-run snapshot.
        self.queue_depth.set(queued as i64);
        self.queue_depth_max.set_max(queued as i64);
    }
}

/// Per-child state the IO shell keeps *around* the protocol machine:
/// everything time- or registry-shaped that [`ChildProtocol`] must not
/// know about.
struct ChildState {
    /// The protocol decisions (health, sequencing, reorder buffer).
    machine: ChildProtocol<Message>,
    /// When the last NACK went out (re-send pacing).
    last_nack: Option<Instant>,
    /// Latest watermark seen from this child (`None` before the first).
    watermark: Option<Timestamp>,
}

impl ChildState {
    fn new(limits: ProtocolLimits, can_nack: bool) -> Self {
        ChildState {
            machine: ChildProtocol::new(limits, can_nack),
            last_nack: None,
            watermark: None,
        }
    }
}

/// One fan-in pump over many child links, running the recovery protocol.
struct Pump<'a, F: FnMut(NodeId, Message)> {
    receivers: &'a [(NodeId, LinkReceiver)],
    sel: Select<'a, Vec<u8>>,
    obs: &'a PumpObs,
    ctx: RecoveryCtx,
    handler: F,
    states: Vec<ChildState>,
    lost: Vec<NodeId>,
    open: usize,
    max_watermark: Timestamp,
    /// Stage attribution for this pump loop ([`PumpObs::lane`]).
    prof: Option<ProfHandle>,
}

/// Pumps messages from children until every channel disconnects, running
/// the recovery protocol on sequenced links.
///
/// Basic node fault tolerance (paper Section 3.2) still holds: a child
/// that disconnects without `Flush` — crashed, removed, or past its retry
/// budget — is flushed on its behalf so mergers waiting for its
/// contributions do not stall, and its id is returned ("Desis will remove
/// this node from the cluster and inform users"). What changed from PR 1:
/// a bad frame on a sequenced link with a control channel now triggers
/// NACK/retransmit recovery instead of immediate loss; only links without
/// a backchannel (raw test channels) keep the old one-strike semantics.
pub(crate) fn pump_children(
    receivers: &[(NodeId, LinkReceiver)],
    obs: &PumpObs,
    ctx: RecoveryCtx,
    handler: impl FnMut(NodeId, Message),
) -> Vec<NodeId> {
    let mut sel = Select::new();
    for (_, r) in receivers {
        sel.recv(r.raw());
    }
    let limits = ctx.config.limits();
    let states = receivers
        .iter()
        .map(|(_, r)| ChildState::new(limits, r.can_nack()))
        .collect();
    let open = receivers.len();
    Pump {
        receivers,
        sel,
        obs,
        ctx,
        handler,
        states,
        lost: Vec::new(),
        open,
        max_watermark: 0,
        prof: obs.lane.clone(),
    }
    .run()
}

impl<F: FnMut(NodeId, Message)> Pump<'_, F> {
    fn run(mut self) -> Vec<NodeId> {
        let tick = self.ctx.config.nack_grace;
        while self.open > 0 {
            // Manual stamps instead of RAII scopes: the handler arms below
            // take `&mut self`, which a live `Scope` borrow would block.
            let recv_t0 = prof::stamp(&self.prof);
            let selected = self.sel.select_timeout(tick);
            prof::record(&mut self.prof, Stage::Recv, recv_t0);
            let handle_t0 = prof::stamp(&self.prof);
            match selected {
                Ok(op) => {
                    let idx = op.index();
                    match op.recv(self.receivers[idx].1.raw()) {
                        Ok(frame) => self.on_frame(idx, frame),
                        Err(_) => self.close_child(idx),
                    }
                }
                Err(_) => self.tick(),
            }
            prof::record(&mut self.prof, Stage::Handler, handle_t0);
        }
        self.lost
    }

    /// Feeds one event into the child's protocol machine and executes the
    /// actions it returns, in order. A failed NACK send feeds
    /// [`ProtoEvent::NackSendFailed`] back into the machine, so actions
    /// are drained from a worklist rather than a plain loop.
    fn dispatch(&mut self, idx: usize, event: ProtoEvent<Message>) {
        let mut work: VecDeque<Action<Message>> = self.states[idx].machine.on_event(event).into();
        let child = self.receivers[idx].0;
        while let Some(action) = work.pop_front() {
            match action {
                Action::Deliver(msg) => self.deliver(idx, msg),
                Action::SenderDone => {
                    // Tell the sender it may stop lingering for NACKs.
                    self.receivers[idx].1.done();
                }
                Action::Nack { from } => {
                    self.states[idx].last_nack = Some(Instant::now());
                    self.ctx.stats.nacks.inc();
                    if !self.receivers[idx].1.nack(from) {
                        work.extend(
                            self.states[idx]
                                .machine
                                .on_event(ProtoEvent::NackSendFailed),
                        );
                    }
                }
                Action::GapOpened => {
                    self.ctx.stats.gaps.inc();
                    self.span(child, SpanKind::ChildRecovering { child });
                }
                Action::GapReopened => self.ctx.stats.gaps.inc(),
                Action::Recovered => {
                    self.ctx.stats.recovered.inc();
                    self.span(child, SpanKind::ChildRecovered { child });
                }
                Action::DuplicateDropped => self.ctx.stats.duplicates_dropped.inc(),
                Action::Closed => {
                    self.sel.remove(idx);
                    self.open -= 1;
                }
                Action::Lost => {
                    self.ctx.stats.lost.inc();
                    self.span(child, SpanKind::ChildLost { child });
                    self.lost.push(child);
                }
                Action::FlushOnBehalf => (self.handler)(child, Message::Flush),
            }
        }
    }

    /// Re-sends overdue NACKs; escalates to Lost once the budget is gone.
    fn tick(&mut self) {
        let grace = self.ctx.config.nack_grace;
        for idx in 0..self.receivers.len() {
            let st = &self.states[idx];
            let due = st.machine.awaiting_retransmit()
                && st.last_nack.is_some_and(|at| at.elapsed() >= grace);
            if due {
                self.dispatch(idx, ProtoEvent::NackTimeout);
            }
        }
    }

    fn on_frame(&mut self, idx: usize, raw: Vec<u8>) {
        let receiver = &self.receivers[idx].1;
        match receiver.decode_framed(&raw) {
            Ok(frame) => {
                self.obs
                    .on_frame(raw.len(), frame.msg.tag(), receiver.raw().len());
                let flush = matches!(frame.msg, Message::Flush);
                self.dispatch(
                    idx,
                    ProtoEvent::Frame {
                        seq: frame.seq,
                        msg: frame.msg,
                        flush,
                    },
                );
            }
            Err(_) => {
                self.obs.decode_errors.inc();
                // A corrupt frame is just a gap at next_seq: everything
                // from there can be retransmitted — if the link has a
                // backchannel; otherwise the machine loses the child.
                self.dispatch(idx, ProtoEvent::Corrupt);
            }
        }
    }

    /// Removes the child after its channel disconnected; the machine
    /// decides whether that is a clean close or a loss.
    fn close_child(&mut self, idx: usize) {
        self.dispatch(idx, ProtoEvent::Disconnect);
    }

    /// Hands one in-order message to the node's handler, maintaining the
    /// watermark liveness view.
    fn deliver(&mut self, idx: usize, msg: Message) {
        if let Some(rec) = self.ctx.recorder.as_mut() {
            if let Message::Slice { partial, .. } = &msg {
                if let Some(id) = partial.trace {
                    rec.record(id, SpanKind::LinkRecv);
                }
            }
        }
        if let Message::Watermark(ts) = &msg {
            self.on_watermark(idx, *ts);
        }
        let child = self.receivers[idx].0;
        (self.handler)(child, msg);
    }

    /// Updates the per-child watermark view and flips Healthy ⇄ Suspect
    /// on liveness lag. Suspect is advisory: it never escalates on its
    /// own, and the machine refuses the flip for recovering, removed, or
    /// flushed children.
    fn on_watermark(&mut self, idx: usize, ts: Timestamp) {
        self.states[idx].watermark = Some(ts);
        if ts > self.max_watermark {
            self.max_watermark = ts;
        }
        for j in 0..self.receivers.len() {
            let Some(wm) = self.states[j].watermark else {
                continue;
            };
            let lagging = self.max_watermark.saturating_sub(wm) > SUSPECT_LAG;
            let Some(health) = self.states[j].machine.note_watermark_lag(lagging) else {
                continue;
            };
            let child = self.receivers[j].0;
            if health == crate::protocol::Health::Suspect {
                self.ctx.stats.suspects.inc();
                self.span(child, SpanKind::ChildSuspect { child });
            } else {
                self.ctx.stats.suspect_cleared.inc();
                self.span(child, SpanKind::ChildRecovered { child });
            }
        }
    }

    /// Records a child-health transition span under a synthetic per-child
    /// trace id (high bit set so it can never collide with minted slice
    /// traces).
    fn span(&mut self, child: NodeId, kind: SpanKind) {
        if let Some(rec) = self.ctx.recorder.as_mut() {
            rec.record(TraceId::from_u64((1 << 63) | u64::from(child)), kind);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::CodecKind;
    use crate::fault::{fault_log, FaultPlan, FaultStats, LinkFaultKind};
    use crate::link::{link, LinkSender};
    use desis_core::obs::MetricsRegistry;

    fn test_obs() -> (Arc<MetricsRegistry>, PumpObs) {
        let registry = Arc::new(MetricsRegistry::new());
        let obs = PumpObs::new(&registry, "root");
        (registry, obs)
    }

    fn quick_ctx() -> RecoveryCtx {
        let mut ctx = RecoveryCtx::detached();
        ctx.config.nack_grace = Duration::from_millis(20);
        ctx
    }

    fn faulty_sender(kind: LinkFaultKind, from: u64, to: u64) -> (LinkSender, LinkReceiver) {
        let (mut tx, rx, _) = link(CodecKind::Binary, 64, None);
        let plan = FaultPlan::new(7).with_link_fault(1, kind, from, to);
        let inj = plan
            .injector_for(1, FaultStats::detached(), fault_log())
            .unwrap();
        tx.set_injector(inj);
        (tx, rx)
    }

    fn watermarks_then_flush(tx: &mut LinkSender, n: u64) {
        for i in 0..n {
            assert!(tx.send(&Message::Watermark(i)));
        }
        assert!(tx.send(&Message::Flush));
    }

    #[test]
    fn clean_stream_stays_healthy() {
        let (mut tx, rx, _) = link(CodecKind::Binary, 64, None);
        watermarks_then_flush(&mut tx, 3);
        drop(tx);
        let (_, obs) = test_obs();
        let ctx = quick_ctx();
        let stats = Arc::clone(&ctx.stats);
        let receivers = vec![(1, rx)];
        let mut got = Vec::new();
        let lost = pump_children(&receivers, &obs, ctx, |_, m| got.push(m));
        assert!(lost.is_empty());
        assert_eq!(got.len(), 4);
        assert_eq!(got[3], Message::Flush);
        assert_eq!(stats.gaps.get(), 0);
        assert_eq!(stats.nacks.get(), 0);
        assert_eq!(stats.lost.get(), 0);
    }

    #[test]
    fn dropped_frame_recovers_via_nack() {
        let (mut tx, rx) = faulty_sender(LinkFaultKind::Drop, 1, 1);
        let grace = Duration::from_millis(20);
        let sender = std::thread::spawn(move || {
            watermarks_then_flush(&mut tx, 4);
            tx.linger(grace, 8);
        });
        let (_, obs) = test_obs();
        let ctx = quick_ctx();
        let stats = Arc::clone(&ctx.stats);
        let receivers = vec![(1, rx)];
        let mut got = Vec::new();
        let lost = pump_children(&receivers, &obs, ctx, |_, m| got.push(m));
        sender.join().unwrap();
        assert!(lost.is_empty(), "drop within history must recover");
        assert_eq!(
            got,
            vec![
                Message::Watermark(0),
                Message::Watermark(1),
                Message::Watermark(2),
                Message::Watermark(3),
                Message::Flush
            ],
            "recovered stream must be complete and in order"
        );
        assert_eq!(stats.gaps.get(), 1);
        assert!(stats.nacks.get() >= 1);
        assert_eq!(stats.recovered.get(), 1);
        assert_eq!(stats.lost.get(), 0);
    }

    #[test]
    fn corrupt_frame_recovers_via_nack() {
        let (mut tx, rx) = faulty_sender(LinkFaultKind::Corrupt, 1, 1);
        let grace = Duration::from_millis(20);
        let sender = std::thread::spawn(move || {
            watermarks_then_flush(&mut tx, 4);
            tx.linger(grace, 8);
        });
        let (registry, obs) = test_obs();
        let ctx = quick_ctx();
        let stats = Arc::clone(&ctx.stats);
        let receivers = vec![(1, rx)];
        let mut got = Vec::new();
        let lost = pump_children(&receivers, &obs, ctx, |_, m| got.push(m));
        sender.join().unwrap();
        assert!(lost.is_empty(), "corruption must be recoverable");
        assert_eq!(got.len(), 5);
        assert_eq!(got.last(), Some(&Message::Flush));
        assert_eq!(
            registry.snapshot().counters["net.root.decode_errors"],
            1,
            "the corrupted frame must be counted"
        );
        assert_eq!(stats.recovered.get(), 1);
        assert_eq!(stats.lost.get(), 0);
    }

    #[test]
    fn duplicated_frames_are_dropped_exactly() {
        let (mut tx, rx) = faulty_sender(LinkFaultKind::Duplicate, 0, 2);
        watermarks_then_flush(&mut tx, 4);
        drop(tx);
        let (_, obs) = test_obs();
        let ctx = quick_ctx();
        let stats = Arc::clone(&ctx.stats);
        let receivers = vec![(1, rx)];
        let mut got = Vec::new();
        let lost = pump_children(&receivers, &obs, ctx, |_, m| got.push(m));
        assert!(lost.is_empty());
        assert_eq!(got.len(), 5, "each duplicated frame delivered once");
        assert_eq!(stats.duplicates_dropped.get(), 3);
        assert_eq!(stats.gaps.get(), 0);
    }

    #[test]
    fn unanswered_nacks_exhaust_budget_and_lose_child() {
        let (mut tx, rx) = faulty_sender(LinkFaultKind::Drop, 1, 1);
        // The sender never services its control channel (no further sends,
        // no linger) — NACKs go unanswered and the budget runs out.
        for i in 0..4u64 {
            assert!(tx.send(&Message::Watermark(i)));
        }
        let keepalive = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(600));
            drop(tx);
        });
        let (_, obs) = test_obs();
        let mut ctx = quick_ctx();
        ctx.config.retry_budget = 3;
        let stats = Arc::clone(&ctx.stats);
        let receivers = vec![(9, rx)];
        let mut flushes = 0;
        let lost = pump_children(&receivers, &obs, ctx, |child, m| {
            assert_eq!(child, 9);
            if matches!(m, Message::Flush) {
                flushes += 1;
            }
        });
        keepalive.join().unwrap();
        assert_eq!(lost, vec![9]);
        assert_eq!(flushes, 1, "lost child must be flushed exactly once");
        assert_eq!(stats.lost.get(), 1);
        assert_eq!(stats.nacks.get(), 3, "budget bounds the NACKs");
        assert_eq!(stats.recovered.get(), 0);
    }

    #[test]
    fn disconnect_with_open_gap_loses_child() {
        let (mut tx, rx) = faulty_sender(LinkFaultKind::Drop, 1, 1);
        for i in 0..3u64 {
            assert!(tx.send(&Message::Watermark(i)));
        }
        assert!(tx.send(&Message::Flush));
        drop(tx); // no linger: the gap can never be filled
        let (_, obs) = test_obs();
        let ctx = quick_ctx();
        let stats = Arc::clone(&ctx.stats);
        let receivers = vec![(4, rx)];
        let mut got = Vec::new();
        let lost = pump_children(&receivers, &obs, ctx, |_, m| got.push(m));
        assert_eq!(lost, vec![4]);
        assert_eq!(stats.lost.get(), 1);
        // Only the pre-gap prefix plus the on-behalf flush was delivered.
        assert_eq!(got, vec![Message::Watermark(0), Message::Flush]);
    }

    #[test]
    fn lingering_sender_recovers_a_dropped_flush() {
        // The worst recoverable case: the *final* frame (Flush) is
        // dropped, so no later frame ever reveals the gap. The sender's
        // linger probes re-send the last frame until the receiver notices,
        // NACKs, and completes.
        let (mut tx, rx) = faulty_sender(LinkFaultKind::Drop, 3, 3);
        let grace = Duration::from_millis(20);
        let sender = std::thread::spawn(move || {
            watermarks_then_flush(&mut tx, 3); // Flush is frame 3: dropped
            tx.linger(grace, 8);
        });
        let (_, obs) = test_obs();
        let ctx = quick_ctx();
        let stats = Arc::clone(&ctx.stats);
        let receivers = vec![(1, rx)];
        let mut got = Vec::new();
        let lost = pump_children(&receivers, &obs, ctx, |_, m| got.push(m));
        sender.join().unwrap();
        assert!(lost.is_empty(), "a dropped Flush must still recover");
        assert_eq!(got.last(), Some(&Message::Flush));
        assert_eq!(got.len(), 4);
        assert_eq!(stats.lost.get(), 0);
    }

    #[test]
    fn watermark_lag_marks_child_suspect_then_clears() {
        let (mut tx_a, rx_a, _) = link(CodecKind::Binary, 64, None);
        let (mut tx_b, rx_b, _) = link(CodecKind::Binary, 64, None);
        assert!(tx_a.send(&Message::Watermark(50_000)));
        assert!(tx_a.send(&Message::Flush));
        drop(tx_a);
        assert!(tx_b.send(&Message::Watermark(1_000))); // lags 49 s
        assert!(tx_b.send(&Message::Watermark(49_999))); // caught up
        assert!(tx_b.send(&Message::Flush));
        drop(tx_b);
        let (_, obs) = test_obs();
        let ctx = quick_ctx();
        let stats = Arc::clone(&ctx.stats);
        let receivers = vec![(1, rx_a), (2, rx_b)];
        let lost = pump_children(&receivers, &obs, ctx, |_, _| {});
        assert!(lost.is_empty());
        assert_eq!(stats.suspects.get(), 1, "lagging child becomes Suspect");
        assert_eq!(stats.suspect_cleared.get(), 1, "and clears on catch-up");
        assert_eq!(stats.lost.get(), 0, "Suspect never escalates by itself");
    }

    #[test]
    fn unsequenced_frames_bypass_the_protocol() {
        let (raw_tx, rx) = crate::link::raw_link(CodecKind::Binary, 8);
        raw_tx
            .send(CodecKind::Binary.encode(&Message::Watermark(5)))
            .unwrap();
        raw_tx
            .send(CodecKind::Binary.encode(&Message::Flush))
            .unwrap();
        drop(raw_tx);
        let (_, obs) = test_obs();
        let ctx = quick_ctx();
        let stats = Arc::clone(&ctx.stats);
        let receivers = vec![(1, rx)];
        let mut got = Vec::new();
        let lost = pump_children(&receivers, &obs, ctx, |_, m| got.push(m));
        assert!(lost.is_empty());
        assert_eq!(got, vec![Message::Watermark(5), Message::Flush]);
        assert_eq!(stats.gaps.get(), 0);
    }
}
