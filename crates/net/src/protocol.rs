//! The per-child recovery protocol as a deterministic state machine.
//!
//! [`crate::recovery`]'s pump used to interleave protocol decisions
//! (gap detection, NACK budgeting, loss escalation) with IO (channel
//! selects, timers, counters). This module extracts the decisions into
//! [`ChildProtocol`], a pure state machine with no clocks, channels, or
//! counters: the pump feeds it [`ProtoEvent`]s and executes the
//! [`Action`]s it returns. Because the machine is deterministic and
//! time-free, the model check in `crates/net/tests/model.rs` can drive
//! the *same code* the cluster runs through every bounded interleaving
//! of frames, timeouts, and disconnects and assert the protocol
//! invariants exhaustively:
//!
//! 1. **flush-on-behalf fires exactly once** — a child that never
//!    flushed is flushed on its behalf when (and only when) it is lost,
//!    and never twice;
//! 2. **Lost is absorbing** — no event after loss delivers a message,
//!    sends a NACK, or changes health;
//! 3. **retransmission never reorders** — delivered sequence numbers are
//!    strictly increasing, with duplicates dropped.
//!
//! Time stays outside: the pump owns the NACK re-send pacing
//! ([`crate::recovery::RecoveryConfig::nack_grace`]) and feeds
//! [`ProtoEvent::NackTimeout`] when a NACK went unanswered too long.
//! Watermark-lag suspicion needs the sibling view, so the pump also
//! decides *when* a child lags; the resulting Healthy ⇄ Suspect flip
//! goes through [`ChildProtocol::note_watermark_lag`] so the machine
//! still guards every health transition.

use std::collections::BTreeMap;

/// Recovery condition of one child link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// In-order, live, nothing outstanding.
    Healthy,
    /// Watermark lags the furthest sibling (advisory; clears by itself).
    Suspect,
    /// A gap is open and NACK/retransmit recovery is running.
    Recovering,
    /// The child is gone for good (absorbing).
    Lost,
}

/// Bounds of the receive-side protocol (a subset of
/// [`crate::recovery::RecoveryConfig`] — the time-valued knobs stay with
/// the pump).
#[derive(Debug, Clone, Copy)]
pub struct ProtocolLimits {
    /// NACKs sent per gap before the child is declared lost.
    pub retry_budget: u32,
    /// Out-of-order frames buffered while a gap is open; overflowing
    /// loses the child.
    pub reorder_cap: usize,
}

/// An input to the per-child state machine. `M` is the message payload
/// (the cluster uses [`crate::message::Message`]; tests use small
/// stand-ins).
#[derive(Debug, Clone)]
pub enum ProtoEvent<M> {
    /// A frame decoded off the link. `seq` is `None` for unsequenced
    /// frames, which bypass gap handling. `flush` marks the
    /// stream-terminating message.
    Frame {
        /// Sequence number, if the frame carried one.
        seq: Option<u64>,
        /// Decoded payload.
        msg: M,
        /// Whether the payload is the end-of-stream marker.
        flush: bool,
    },
    /// An undecodable frame (checksum mismatch / truncation).
    Corrupt,
    /// The pump's pacing timer found the outstanding NACK unanswered.
    NackTimeout,
    /// The pump could not deliver the NACK requested by
    /// [`Action::Nack`] (backchannel gone).
    NackSendFailed,
    /// The link disconnected (sender dropped, crashed, or removed).
    Disconnect,
}

/// An instruction to the pump, to be executed in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action<M> {
    /// Hand `M` to the node in arrival order.
    Deliver(M),
    /// The child's real end-of-stream marker was delivered: tell the
    /// sender it may stop lingering for retransmit requests.
    SenderDone,
    /// Ask the sender to retransmit everything from `from` onward. If
    /// the send fails, feed [`ProtoEvent::NackSendFailed`] back in.
    Nack {
        /// First missing sequence number.
        from: u64,
    },
    /// A fresh gap opened (Healthy/Suspect → Recovering).
    GapOpened,
    /// A second hole surfaced behind a filled gap (still Recovering).
    GapReopened,
    /// A retransmit filled the gap (Recovering → Healthy).
    Recovered,
    /// A redelivered frame was discarded.
    DuplicateDropped,
    /// The child left the live set: deselect its channel.
    Closed,
    /// The child was lost without flushing (report it).
    Lost,
    /// Deliver an end-of-stream on the lost child's behalf. Emitted at
    /// most once per child, immediately after [`Action::Lost`].
    FlushOnBehalf,
}

/// Receive-side protocol state of one child link.
///
/// See the [module docs](self) for the state diagram and invariants.
/// All methods are total: events that do not apply in the current state
/// (frames after loss, timeouts while healthy) return no actions.
#[derive(Debug)]
pub struct ChildProtocol<M> {
    limits: ProtocolLimits,
    /// Whether the link has a control backchannel. Without one a gap or
    /// corrupt frame is immediately unrecoverable.
    can_nack: bool,
    health: Health,
    /// Next expected sequence number.
    next_seq: u64,
    /// Out-of-order sequenced frames parked while a gap is open; the
    /// flag marks parked end-of-stream payloads.
    buffer: BTreeMap<u64, (M, bool)>,
    /// NACKs spent on the current gap.
    nacks_sent: u32,
    /// Whether an end-of-stream was delivered (real or on-behalf).
    flushed: bool,
    /// Whether the child left the live set.
    removed: bool,
}

impl<M> ChildProtocol<M> {
    /// A fresh machine in `Healthy` expecting sequence 0.
    pub fn new(limits: ProtocolLimits, can_nack: bool) -> Self {
        ChildProtocol {
            limits,
            can_nack,
            health: Health::Healthy,
            next_seq: 0,
            buffer: BTreeMap::new(),
            nacks_sent: 0,
            flushed: false,
            removed: false,
        }
    }

    /// Current health.
    pub fn health(&self) -> Health {
        self.health
    }

    /// Whether the child left the live set.
    pub fn removed(&self) -> bool {
        self.removed
    }

    /// Whether an end-of-stream was delivered (real or on-behalf).
    pub fn flushed(&self) -> bool {
        self.flushed
    }

    /// Whether the pump should pace NACK re-sends for this child.
    pub fn awaiting_retransmit(&self) -> bool {
        self.health == Health::Recovering && !self.removed
    }

    /// Feeds one event, returning the actions to execute in order.
    pub fn on_event(&mut self, event: ProtoEvent<M>) -> Vec<Action<M>> {
        match event {
            ProtoEvent::Frame { seq, msg, flush } => match seq {
                Some(seq) => self.on_sequenced(seq, msg, flush),
                None => {
                    // Unsequenced frames bypass the protocol entirely.
                    let mut out = Vec::new();
                    self.deliver(msg, flush, &mut out);
                    out
                }
            },
            ProtoEvent::Corrupt => self.on_corrupt(),
            ProtoEvent::NackTimeout => self.on_nack_timeout(),
            ProtoEvent::NackSendFailed | ProtoEvent::Disconnect => self.close(),
        }
    }

    /// The pump noticed this child's watermark lagging (or catching up
    /// with) the furthest sibling. Returns the new health if the
    /// advisory Healthy ⇄ Suspect transition fired.
    pub fn note_watermark_lag(&mut self, lagging: bool) -> Option<Health> {
        if self.removed || self.flushed {
            return None;
        }
        let next = match (self.health, lagging) {
            (Health::Healthy, true) => Health::Suspect,
            (Health::Suspect, false) => Health::Healthy,
            _ => return None,
        };
        self.health = next;
        Some(next)
    }

    fn on_sequenced(&mut self, seq: u64, msg: M, flush: bool) -> Vec<Action<M>> {
        let mut out = Vec::new();
        if self.health == Health::Lost {
            return out;
        }
        if seq < self.next_seq {
            out.push(Action::DuplicateDropped);
            return out;
        }
        if seq > self.next_seq {
            // Gap: park the frame and ask for a retransmit.
            if self.buffer.len() >= self.limits.reorder_cap {
                return self.close();
            }
            self.buffer.insert(seq, (msg, flush));
            self.open_gap(&mut out);
            return out;
        }
        self.next_seq = seq + 1;
        self.deliver(msg, flush, &mut out);
        while let Some((parked, parked_flush)) = self.buffer.remove(&self.next_seq) {
            self.next_seq += 1;
            self.deliver(parked, parked_flush, &mut out);
        }
        if self.health == Health::Recovering {
            if self.buffer.is_empty() {
                // The retransmit filled the gap: fully caught up.
                self.health = Health::Healthy;
                self.nacks_sent = 0;
                out.push(Action::Recovered);
            } else {
                // A second hole behind the first: a fresh gap.
                out.push(Action::GapReopened);
                self.nacks_sent = 0;
                self.nack_now(&mut out);
            }
        }
        out
    }

    /// A corrupt frame is just a gap at `next_seq`: everything from
    /// there can be retransmitted — if the link has a backchannel.
    fn on_corrupt(&mut self) -> Vec<Action<M>> {
        let mut out = Vec::new();
        if self.health == Health::Lost {
            return out;
        }
        self.open_gap(&mut out);
        out
    }

    /// Transitions into Recovering and sends the first NACK for a newly
    /// detected gap. No-op while already Recovering (timeouts re-send).
    fn open_gap(&mut self, out: &mut Vec<Action<M>>) {
        match self.health {
            Health::Recovering | Health::Lost => return,
            Health::Healthy | Health::Suspect => {}
        }
        if !self.can_nack {
            out.extend(self.close());
            return;
        }
        self.health = Health::Recovering;
        self.nacks_sent = 0;
        out.push(Action::GapOpened);
        self.nack_now(out);
    }

    fn on_nack_timeout(&mut self) -> Vec<Action<M>> {
        let mut out = Vec::new();
        if self.awaiting_retransmit() {
            self.nack_now(&mut out);
        }
        out
    }

    /// Sends (or re-sends) the NACK for the current gap; loses the child
    /// once the retry budget is exhausted.
    fn nack_now(&mut self, out: &mut Vec<Action<M>>) {
        if self.nacks_sent >= self.limits.retry_budget {
            out.extend(self.close());
            return;
        }
        self.nacks_sent += 1;
        out.push(Action::Nack {
            from: self.next_seq,
        });
    }

    /// Removes the child from the live set; if it never flushed, it is
    /// lost: flushed on its behalf exactly once and reported.
    fn close(&mut self) -> Vec<Action<M>> {
        let mut out = Vec::new();
        if self.removed {
            return out;
        }
        self.removed = true;
        self.health = Health::Lost;
        out.push(Action::Closed);
        if !self.flushed {
            self.flushed = true;
            out.push(Action::Lost);
            out.push(Action::FlushOnBehalf);
        }
        out
    }

    /// Hands one in-order payload downstream, maintaining the
    /// end-of-stream handshake.
    fn deliver(&mut self, msg: M, flush: bool, out: &mut Vec<Action<M>>) {
        if flush {
            self.flushed = true;
            out.push(Action::SenderDone);
        }
        out.push(Action::Deliver(msg));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(budget: u32, cap: usize) -> ChildProtocol<u64> {
        ChildProtocol::new(
            ProtocolLimits {
                retry_budget: budget,
                reorder_cap: cap,
            },
            true,
        )
    }

    fn frame(seq: u64) -> ProtoEvent<u64> {
        ProtoEvent::Frame {
            seq: Some(seq),
            msg: seq,
            flush: false,
        }
    }

    #[test]
    fn in_order_frames_deliver_directly() {
        let mut m = machine(4, 8);
        assert_eq!(m.on_event(frame(0)), vec![Action::Deliver(0)]);
        assert_eq!(m.on_event(frame(1)), vec![Action::Deliver(1)]);
        assert_eq!(m.health(), Health::Healthy);
    }

    #[test]
    fn gap_nacks_then_retransmit_recovers() {
        let mut m = machine(4, 8);
        assert_eq!(m.on_event(frame(0)), vec![Action::Deliver(0)]);
        assert_eq!(
            m.on_event(frame(2)),
            vec![Action::GapOpened, Action::Nack { from: 1 }]
        );
        assert_eq!(m.health(), Health::Recovering);
        assert_eq!(
            m.on_event(frame(1)),
            vec![Action::Deliver(1), Action::Deliver(2), Action::Recovered]
        );
        assert_eq!(m.health(), Health::Healthy);
    }

    #[test]
    fn exhausted_budget_loses_child_once() {
        let mut m = machine(2, 8);
        m.on_event(frame(1)); // gap at 0 → first NACK
        assert_eq!(
            m.on_event(ProtoEvent::NackTimeout),
            vec![Action::Nack { from: 0 }]
        );
        assert_eq!(
            m.on_event(ProtoEvent::NackTimeout),
            vec![Action::Closed, Action::Lost, Action::FlushOnBehalf]
        );
        assert_eq!(m.health(), Health::Lost);
        assert!(m.on_event(ProtoEvent::NackTimeout).is_empty());
        assert!(m.on_event(frame(0)).is_empty(), "Lost is absorbing");
    }

    #[test]
    fn disconnect_after_flush_is_a_clean_close() {
        let mut m = machine(4, 8);
        assert_eq!(
            m.on_event(ProtoEvent::Frame {
                seq: Some(0),
                msg: 0,
                flush: true
            }),
            vec![Action::SenderDone, Action::Deliver(0)]
        );
        assert_eq!(m.on_event(ProtoEvent::Disconnect), vec![Action::Closed]);
    }

    #[test]
    fn corrupt_without_backchannel_loses_immediately() {
        let mut m: ChildProtocol<u64> = ChildProtocol::new(
            ProtocolLimits {
                retry_budget: 4,
                reorder_cap: 8,
            },
            false,
        );
        assert_eq!(
            m.on_event(ProtoEvent::Corrupt),
            vec![Action::Closed, Action::Lost, Action::FlushOnBehalf]
        );
    }

    #[test]
    fn suspect_flips_are_guarded() {
        let mut m = machine(4, 8);
        assert_eq!(m.note_watermark_lag(true), Some(Health::Suspect));
        assert_eq!(m.note_watermark_lag(true), None, "already suspect");
        assert_eq!(m.note_watermark_lag(false), Some(Health::Healthy));
        m.on_event(frame(5)); // open a gap
        assert_eq!(
            m.note_watermark_lag(true),
            None,
            "recovering is not re-judged"
        );
    }
}
