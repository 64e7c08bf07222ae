//! Links between nodes: bounded channels carrying serialized frames, with
//! per-link byte accounting, optional bandwidth limiting, and the sender
//! half of the recovery protocol.
//!
//! Every message is encoded on send and decoded on receive, so byte
//! counters (Figure 11) measure real wire sizes. Bounded channels provide
//! backpressure, which is what makes measured throughput *sustainable*
//! throughput in the sense of Karimov et al. \[31\]. The token-bucket
//! limiter models constrained links such as the Raspberry Pi cluster's 1G
//! Ethernet (Figure 13).
//!
//! Since wire v3 every link is *reliable-capable*: frames carry sequence
//! numbers, the sender keeps a bounded history for retransmission, and an
//! unbounded control backchannel carries [`Control::Nack`] /
//! [`Control::Done`] from the receiving pump back to the sender (see
//! [`crate::recovery`] for the receive side). Fault injection hooks in on
//! the send side ([`LinkSender::set_injector`]): injected faults apply to
//! *original* transmissions only — retransmissions bypass the injector so
//! fault placement stays a pure function of the plan, the seed, and the
//! frame order.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam_channel::{Receiver, Select, Sender};
use desis_core::obs::trace::{SpanKind, TraceRecorder};
use desis_core::obs::{names, Counter, MetricsRegistry};

use crate::codec::{CodecError, CodecKind, Frame};
use crate::fault::FaultInjector;
use crate::message::Message;
use crate::recovery::Control;

/// Counters of one directed link, backed by the shared observability
/// [`Counter`] type so they can live inside a [`MetricsRegistry`] and show
/// up in metric snapshots without a separate accounting path.
#[derive(Debug)]
pub struct LinkStats {
    bytes: Arc<Counter>,
    messages: Arc<Counter>,
}

impl Default for LinkStats {
    fn default() -> Self {
        Self {
            bytes: Arc::new(Counter::default()),
            messages: Arc::new(Counter::default()),
        }
    }
}

impl LinkStats {
    /// Detached counters (not visible in any registry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Counters registered in `registry` as `net.node{id}.egress_bytes` /
    /// `net.node{id}.egress_msgs`, so per-node uplink traffic appears in
    /// registry snapshots (Figure 11's communication-cost metric).
    pub fn registered(registry: &MetricsRegistry, node_id: u32) -> Self {
        Self {
            bytes: registry.counter(&names::egress_bytes(node_id)),
            messages: registry.counter(&names::egress_msgs(node_id)),
        }
    }

    /// Total payload bytes sent over the link.
    pub fn bytes(&self) -> u64 {
        self.bytes.get()
    }

    /// Total messages sent over the link.
    pub fn messages(&self) -> u64 {
        self.messages.get()
    }
}

/// Token-bucket rate limiter (bytes per second).
#[derive(Debug)]
struct TokenBucket {
    rate: f64,
    tokens: f64,
    burst: f64,
    last: Instant,
}

impl TokenBucket {
    fn new(bytes_per_sec: u64) -> Self {
        let rate = bytes_per_sec as f64;
        Self {
            rate,
            tokens: rate / 10.0,
            burst: rate / 10.0, // 100 ms of burst
            last: Instant::now(),
        }
    }

    /// Blocks until `n` bytes of budget are available, then consumes them.
    fn consume(&mut self, n: usize) {
        let now = Instant::now();
        self.tokens = f64::min(
            self.tokens + now.duration_since(self.last).as_secs_f64() * self.rate,
            self.burst,
        );
        self.last = now;
        let need = n as f64;
        if self.tokens < need {
            let wait = (need - self.tokens) / self.rate;
            std::thread::sleep(Duration::from_secs_f64(wait));
            let now = Instant::now();
            self.tokens += now.duration_since(self.last).as_secs_f64() * self.rate;
            self.last = now;
        }
        self.tokens -= need;
    }
}

/// Clean frames a sender keeps for retransmission; a gap older than this
/// is unrecoverable and loses the child.
const HISTORY_CAP: usize = 1024;

/// Sending half of a link: serializes messages into sequence-numbered v3
/// frames, keeps a bounded retransmit history, and answers NACKs from the
/// receiving pump.
#[derive(Debug)]
pub struct LinkSender {
    tx: Sender<Vec<u8>>,
    codec: CodecKind,
    stats: Arc<LinkStats>,
    limiter: Option<TokenBucket>,
    tracer: Option<TraceRecorder>,
    control: Receiver<Control>,
    /// Sequence number of the next original frame.
    next_seq: u64,
    /// Clean frames kept for retransmission, oldest first.
    history: VecDeque<(u64, Vec<u8>)>,
    /// Fault injection for original transmissions, if scheduled.
    injector: Option<FaultInjector>,
    /// Whether the receiver already acknowledged the final Flush.
    done: bool,
}

impl LinkSender {
    /// Enables causal slice tracing: traced slice messages record
    /// `SliceEncoded{bytes}` and `LinkSend` spans as they leave.
    pub fn set_recorder(&mut self, recorder: TraceRecorder) {
        self.tracer = Some(recorder);
    }

    /// Installs a fault injector consulted for every original frame.
    pub fn set_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    /// Serializes and sends a message. Blocks on backpressure and on the
    /// bandwidth limiter. Returns `false` if the receiver is gone.
    ///
    /// Pending control messages (NACKs) are serviced first, so retransmit
    /// requests are answered no later than the sender's next send.
    pub fn send(&mut self, msg: &Message) -> bool {
        self.service_control();
        let seq = self.next_seq;
        self.next_seq += 1;
        let frame = self.codec.encode_seq(msg, seq);
        if let Some(rec) = &mut self.tracer {
            if let Message::Slice { partial, .. } = msg {
                if let Some(id) = partial.trace {
                    rec.record(
                        id,
                        SpanKind::SliceEncoded {
                            bytes: frame.len() as u64,
                        },
                    );
                    rec.record(id, SpanKind::LinkSend);
                }
            }
        }
        self.history.push_back((seq, frame.clone()));
        if self.history.len() > HISTORY_CAP {
            self.history.pop_front();
        }
        let fate = self
            .injector
            .as_mut()
            .map(|inj| inj.on_frame(frame.len()))
            .unwrap_or_default();
        if fate.drop {
            // The frame stays in history, so a NACK can still recover it.
            return true;
        }
        if fate.delay_ms > 0 {
            std::thread::sleep(Duration::from_millis(fate.delay_ms));
        }
        // History holds the clean copy; this one goes on the wire.
        let mut wire = frame;
        if let Some(pos) = fate.corrupt_at {
            let at = pos % wire.len();
            wire[at] ^= 0xA5;
        }
        if fate.duplicate {
            let first = self.transmit(wire.clone());
            return self.transmit(wire) && first;
        }
        self.transmit(wire)
    }

    /// Sends a raw event batch as one [`Message::Events`] frame, taking
    /// the events out of `batch` (its allocation survives for reuse).
    /// Empty batches send nothing. Returns `false` if the receiver is
    /// gone.
    pub fn send_batch(&mut self, batch: &mut desis_core::event::EventBatch) -> bool {
        if batch.is_empty() {
            return true;
        }
        self.send(&Message::Events(batch.take()))
    }

    /// Pushes one already-encoded frame onto the wire, counting it.
    fn transmit(&mut self, frame: Vec<u8>) -> bool {
        if let Some(limiter) = &mut self.limiter {
            limiter.consume(frame.len());
        }
        self.stats.bytes.add(frame.len() as u64);
        self.stats.messages.inc();
        self.tx.send(frame).is_ok()
    }

    /// Drains the control backchannel without blocking, answering NACKs
    /// from history.
    fn service_control(&mut self) {
        while let Ok(ctl) = self.control.try_recv() {
            self.handle_control(ctl);
        }
    }

    fn handle_control(&mut self, ctl: Control) {
        match ctl {
            Control::Nack { from } => self.retransmit_from(from),
            Control::Done => self.done = true,
        }
    }

    /// Re-sends every history frame with sequence `>= from`, in order,
    /// bypassing the fault injector (retransmissions are clean, keeping
    /// fault placement deterministic). Frames already evicted are simply
    /// unavailable; the receiver's retry budget handles that.
    fn retransmit_from(&mut self, from: u64) {
        let frames: Vec<Vec<u8>> = self
            .history
            .iter()
            .filter(|(seq, _)| *seq >= from)
            .map(|(_, f)| f.clone())
            .collect();
        for frame in frames {
            if !self.transmit(frame) {
                return;
            }
        }
    }

    /// Serves retransmit requests after the final send. Call after the
    /// last frame (normally `Flush`) went out, before dropping the link.
    ///
    /// Exits when the receiver acknowledges with [`Control::Done`] or
    /// hangs up. While waiting, every `grace` without news the last
    /// history frame is re-probed (at most `max_probes` times): if the
    /// final frames were dropped in flight, no later frame would ever
    /// reveal the gap — the probe does, triggering the receiver's NACK.
    pub fn linger(&mut self, grace: Duration, max_probes: u32) {
        self.service_control();
        let mut probes = 0;
        while !self.done {
            // Scope the select so its borrow of the control channel ends
            // before we mutate `self` below.
            let event = {
                let mut sel = Select::new();
                sel.recv(&self.control);
                match sel.select_timeout(grace) {
                    Ok(op) => Some(op.recv(&self.control)),
                    Err(_) => None,
                }
            };
            match event {
                Some(Ok(ctl)) => self.handle_control(ctl),
                Some(Err(_)) => return, // receiver gone: nothing to serve
                None => {
                    if probes >= max_probes {
                        return;
                    }
                    probes += 1;
                    if let Some((_, frame)) = self.history.back() {
                        let frame = frame.clone();
                        if !self.transmit(frame) {
                            return;
                        }
                    }
                }
            }
        }
    }

    /// This link's counters.
    pub fn stats(&self) -> &Arc<LinkStats> {
        &self.stats
    }
}

/// Receiving half of a link, plus the sending end of its control
/// backchannel (NACK / Done flow back to the link's sender).
#[derive(Debug)]
pub struct LinkReceiver {
    rx: Receiver<Vec<u8>>,
    codec: CodecKind,
    control: Option<Sender<Control>>,
}

impl LinkReceiver {
    /// Receives and decodes the next message; `None` when the sender hung
    /// up. Sequence numbers are stripped — use the pump in
    /// [`crate::recovery`] for gap handling.
    pub fn recv(&self) -> Option<Result<Message, CodecError>> {
        self.rx.recv().ok().map(|frame| self.codec.decode(&frame))
    }

    /// The raw frame receiver (for select loops over many children).
    pub(crate) fn raw(&self) -> &Receiver<Vec<u8>> {
        &self.rx
    }

    /// Decodes a raw frame received via [`Self::raw`], keeping its
    /// sequence number.
    pub(crate) fn decode_framed(&self, frame: &[u8]) -> Result<Frame, CodecError> {
        self.codec.decode_framed(frame)
    }

    /// Whether this link has a control backchannel for retransmit
    /// requests (raw test links do not).
    pub(crate) fn can_nack(&self) -> bool {
        self.control.is_some()
    }

    /// Requests retransmission of every frame from sequence `from`
    /// onward. Returns `false` when there is no backchannel or the sender
    /// is gone.
    pub(crate) fn nack(&self, from: u64) -> bool {
        match &self.control {
            Some(tx) => tx.send(Control::Nack { from }).is_ok(),
            None => false,
        }
    }

    /// Tells the sender its final Flush arrived and lingering may end.
    pub(crate) fn done(&self) {
        if let Some(tx) = &self.control {
            let _ = tx.send(Control::Done);
        }
    }
}

/// Creates a link with the given codec, queue capacity (messages), and
/// optional bandwidth limit in bytes/second. Counters are detached; use
/// [`link_with_stats`] to count into a registry.
pub fn link(
    codec: CodecKind,
    capacity: usize,
    bandwidth: Option<u64>,
) -> (LinkSender, LinkReceiver, Arc<LinkStats>) {
    link_with_stats(codec, capacity, bandwidth, Arc::new(LinkStats::default()))
}

/// Creates a link counting into caller-provided stats (e.g.
/// [`LinkStats::registered`] counters living in a [`MetricsRegistry`]).
pub fn link_with_stats(
    codec: CodecKind,
    capacity: usize,
    bandwidth: Option<u64>,
    stats: Arc<LinkStats>,
) -> (LinkSender, LinkReceiver, Arc<LinkStats>) {
    let (tx, rx) = crossbeam_channel::bounded(capacity);
    // Justified in lint/allow/bounded-channels.allow.
    let (control_tx, control_rx) = crossbeam_channel::unbounded();
    (
        LinkSender {
            tx,
            codec,
            stats: Arc::clone(&stats),
            limiter: bandwidth.map(TokenBucket::new),
            tracer: None,
            control: control_rx,
            next_seq: 0,
            history: VecDeque::new(),
            injector: None,
            done: false,
        },
        LinkReceiver {
            rx,
            codec,
            control: Some(control_tx),
        },
        stats,
    )
}

/// Test helper: a receiver plus the raw frame sender feeding it, for
/// injecting arbitrary (possibly corrupt) frames. Has no control
/// backchannel, so one bad frame loses the child.
#[cfg(test)]
pub(crate) fn raw_link(codec: CodecKind, capacity: usize) -> (Sender<Vec<u8>>, LinkReceiver) {
    let (tx, rx) = crossbeam_channel::bounded(capacity);
    (
        tx,
        LinkReceiver {
            rx,
            codec,
            control: None,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{fault_log, FaultPlan, FaultStats, LinkFaultKind};
    use desis_core::event::Event;

    #[test]
    fn send_counts_bytes_and_messages() {
        let (mut tx, rx, stats) = link(CodecKind::Binary, 16, None);
        let msg = Message::Events(vec![Event::new(1, 2, 3.0)]);
        assert!(tx.send(&msg));
        assert!(tx.send(&Message::Flush));
        assert_eq!(stats.messages(), 2);
        assert!(stats.bytes() > 0);
        assert_eq!(rx.recv().unwrap().unwrap(), msg);
        assert_eq!(rx.recv().unwrap().unwrap(), Message::Flush);
    }

    #[test]
    fn frames_carry_consecutive_sequence_numbers() {
        let (mut tx, rx, _) = link(CodecKind::Binary, 16, None);
        for i in 0..3u64 {
            assert!(tx.send(&Message::Watermark(i)));
        }
        for want in 0..3u64 {
            let raw = rx.raw().recv().unwrap();
            let frame = rx.decode_framed(&raw).unwrap();
            assert_eq!(frame.seq, Some(want));
            assert_eq!(frame.msg, Message::Watermark(want));
        }
    }

    #[test]
    fn nack_retransmits_from_history() {
        let (mut tx, rx, _) = link(CodecKind::Binary, 16, None);
        assert!(tx.send(&Message::Watermark(0)));
        assert!(tx.send(&Message::Watermark(1)));
        assert!(rx.nack(1));
        // The retransmit happens at the next send.
        assert!(tx.send(&Message::Watermark(2)));
        let seqs: Vec<Option<u64>> = (0..4)
            .map(|_| rx.decode_framed(&rx.raw().recv().unwrap()).unwrap().seq)
            .collect();
        // Frames 0 and 1 were already queued; the NACKed copy of 1 lands
        // before the new frame 2.
        assert_eq!(
            seqs,
            vec![Some(0), Some(1), Some(1), Some(2)],
            "history frame must be re-sent on NACK"
        );
    }

    #[test]
    fn history_eviction_forgets_old_frames() {
        // Two frames more than the history keeps.
        let sent = HISTORY_CAP as u64 + 2;
        let (mut tx, rx, _) = link(CodecKind::Binary, 3 * HISTORY_CAP, None);
        for i in 0..sent {
            assert!(tx.send(&Message::Watermark(i)));
        }
        assert!(rx.nack(0)); // frames 0 and 1 are already evicted
        assert!(tx.send(&Message::Flush));
        let seqs: Vec<u64> = (0..2 * sent - 1)
            .map(|_| rx.decode_framed(&rx.raw().recv().unwrap()).unwrap().seq)
            .map(|seq| seq.expect("cluster frames are numbered"))
            .collect();
        // The originals, then only the surviving history (2 onwards),
        // then the Flush.
        let expected: Vec<u64> = (0..sent).chain(2..sent).chain([sent]).collect();
        assert_eq!(seqs, expected);
    }

    #[test]
    fn linger_exits_on_done() {
        let (mut tx, rx, _) = link(CodecKind::Binary, 16, None);
        assert!(tx.send(&Message::Flush));
        rx.done();
        let start = Instant::now();
        tx.linger(Duration::from_millis(500), 4);
        assert!(
            start.elapsed() < Duration::from_millis(400),
            "Done must end the linger immediately"
        );
    }

    #[test]
    fn linger_exits_when_receiver_hangs_up() {
        let (mut tx, rx, _) = link(CodecKind::Binary, 16, None);
        assert!(tx.send(&Message::Flush));
        drop(rx);
        let start = Instant::now();
        tx.linger(Duration::from_millis(500), 4);
        assert!(start.elapsed() < Duration::from_millis(400));
    }

    #[test]
    fn injected_drop_keeps_frame_out_of_channel_but_in_history() {
        let (mut tx, rx, stats) = link(CodecKind::Binary, 16, None);
        let plan = FaultPlan::new(1).with_link_fault(5, LinkFaultKind::Drop, 1, 1);
        tx.set_injector(
            plan.injector_for(5, FaultStats::detached(), fault_log())
                .unwrap(),
        );
        assert!(tx.send(&Message::Watermark(0)));
        assert!(tx.send(&Message::Watermark(1))); // dropped
        assert!(tx.send(&Message::Watermark(2)));
        assert_eq!(stats.messages(), 2, "dropped frame never hits the wire");
        assert!(rx.nack(1));
        assert!(tx.send(&Message::Flush));
        let seqs: Vec<Option<u64>> = (0..5)
            .map(|_| rx.decode_framed(&rx.raw().recv().unwrap()).unwrap().seq)
            .collect();
        // Originals 0 and 2 (1 was dropped), then the NACK answer (1, 2
        // — everything from seq 1), then the Flush (3).
        assert_eq!(seqs, vec![Some(0), Some(2), Some(1), Some(2), Some(3)]);
    }

    #[test]
    fn registered_stats_count_into_registry() {
        let registry = MetricsRegistry::new();
        let stats = Arc::new(LinkStats::registered(&registry, 7));
        let (mut tx, _rx, _) = link_with_stats(CodecKind::Binary, 16, None, stats);
        assert!(tx.send(&Message::Flush));
        let snap = registry.snapshot();
        assert_eq!(snap.counters["net.node7.egress_msgs"], 1);
        assert!(snap.counters["net.node7.egress_bytes"] > 0);
    }

    #[test]
    fn send_fails_after_receiver_drop() {
        let (mut tx, rx, _) = link(CodecKind::Binary, 4, None);
        drop(rx);
        assert!(!tx.send(&Message::Flush));
    }

    #[test]
    fn bandwidth_limiter_throttles() {
        // 10 KB/s link with a 1 KB burst: pushing ~5 KB past the burst
        // must take roughly 400 ms.
        let (mut tx, rx, stats) = link(CodecKind::Binary, 1024, Some(10_000));
        let events: Vec<Event> = (0..64).map(|i| Event::new(i, 0, 0.0)).collect();
        let msg = Message::Events(events);
        let frame_len = CodecKind::Binary.encode(&msg).len() as u64;
        let frames = 1 + (5_000 / frame_len).max(1);
        let start = Instant::now();
        for _ in 0..frames {
            assert!(tx.send(&msg));
        }
        let elapsed = start.elapsed();
        drop(rx);
        let sent = stats.bytes() as f64;
        let expected_secs = (sent - 1_000.0).max(0.0) / 10_000.0;
        assert!(
            elapsed.as_secs_f64() >= expected_secs * 0.5,
            "limiter too permissive: {elapsed:?} for {sent} bytes"
        );
    }

    #[test]
    fn unlimited_link_is_fast() {
        let (mut tx, _rx, _) = link(CodecKind::Binary, 1024, None);
        let start = Instant::now();
        for i in 0..1_000u64 {
            assert!(tx.send(&Message::Watermark(i)));
        }
        assert!(start.elapsed() < Duration::from_millis(500));
    }
}
