//! Out-of-order ingestion support.
//!
//! The Desis slicer (like the paper's generators) consumes streams in
//! timestamp order. Real sources deliver events out of order; systems in
//! the stream-slicing lineage (Scotty, ICDE'18) bound that disorder by an
//! *allowed lateness*. [`ReorderBuffer`] provides exactly that in front of
//! any ordered consumer: events are buffered until the stream's maximum
//! timestamp has advanced past `ts + lateness`, then released in order;
//! events arriving later than the allowed lateness are counted and
//! dropped.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::event::Event;
use crate::time::{DurationMs, Timestamp};

/// Buffers a bounded amount of disorder and releases an ordered stream.
#[derive(Debug, Clone)]
pub struct ReorderBuffer {
    lateness: DurationMs,
    /// Min-heap over `(ts, arrival sequence)` for stable ordering of ties.
    heap: BinaryHeap<Reverse<(Timestamp, u64)>>,
    /// Events keyed by arrival sequence (heap payloads stay `Copy`).
    pending: rustc_hash::FxHashMap<u64, Event>,
    seq: u64,
    max_ts: Timestamp,
    /// Events with `ts < floor` are final: releasing below this bound has
    /// already happened, so later arrivals below it are too late.
    floor: Timestamp,
    late_dropped: u64,
}

impl ReorderBuffer {
    /// Creates a buffer tolerating up to `lateness` of event-time
    /// disorder.
    pub fn new(lateness: DurationMs) -> Self {
        Self {
            lateness,
            heap: BinaryHeap::new(),
            pending: rustc_hash::FxHashMap::default(),
            seq: 0,
            max_ts: 0,
            floor: 0,
            late_dropped: 0,
        }
    }

    /// Number of events currently buffered.
    pub fn buffered(&self) -> usize {
        self.heap.len()
    }

    /// Events dropped because they exceeded the allowed lateness.
    pub fn late_dropped(&self) -> u64 {
        self.late_dropped
    }

    /// Timestamps below this are final: everything below has been
    /// released, and later arrivals below it count as too late.
    pub fn frontier(&self) -> Timestamp {
        self.floor
    }

    /// Offers one (possibly out-of-order) event; any events that become
    /// releasable are appended to `out` in timestamp order.
    ///
    /// Returns `false` if the event was too late and dropped.
    pub fn push(&mut self, ev: Event, out: &mut Vec<Event>) -> bool {
        if ev.ts < self.floor {
            self.late_dropped += 1;
            return false;
        }
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse((ev.ts, seq)));
        self.pending.insert(seq, ev);
        self.max_ts = self.max_ts.max(ev.ts);
        // Anything more than `lateness` behind the stream's maximum is
        // final.
        self.release_below(self.max_ts.saturating_sub(self.lateness), out);
        true
    }

    /// Advances event time without data: a source watermark asserts that
    /// everything at or below `ts` is complete, so it is released.
    pub fn advance(&mut self, ts: Timestamp, out: &mut Vec<Event>) {
        self.max_ts = self.max_ts.max(ts);
        self.release_below(ts.saturating_add(1), out);
    }

    /// Releases every buffered event (end of stream).
    pub fn flush(&mut self, out: &mut Vec<Event>) {
        self.release_below(Timestamp::MAX, out);
    }

    /// Releases all buffered events with `ts < bound`, in order.
    fn release_below(&mut self, bound: Timestamp, out: &mut Vec<Event>) {
        while let Some(&Reverse((ts, seq))) = self.heap.peek() {
            if ts >= bound {
                break;
            }
            self.heap.pop();
            // Heap and pending are inserted in lockstep; a missing entry
            // is a stale key and is simply skipped.
            if let Some(ev) = self.pending.remove(&seq) {
                out.push(ev);
            }
        }
        if bound != Timestamp::MAX {
            self.floor = self.floor.max(bound);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggFunction;
    use crate::engine::AggregationEngine;
    use crate::query::Query;
    use crate::window::WindowSpec;

    #[test]
    fn releases_in_order_under_bounded_disorder() {
        let mut buf = ReorderBuffer::new(50);
        let mut out = Vec::new();
        for ts in [10u64, 5, 30, 20, 80, 60, 110] {
            buf.push(Event::new(ts, 0, ts as f64), &mut out);
        }
        buf.flush(&mut out);
        let seen: Vec<u64> = out.iter().map(|e| e.ts).collect();
        assert_eq!(seen, vec![5, 10, 20, 30, 60, 80, 110]);
        assert_eq!(buf.late_dropped(), 0);
    }

    #[test]
    fn stable_for_equal_timestamps() {
        let mut buf = ReorderBuffer::new(100);
        let mut out = Vec::new();
        for (i, ts) in [(0u32, 10u64), (1, 10), (2, 10)] {
            buf.push(Event::new(ts, i, 0.0), &mut out);
        }
        buf.flush(&mut out);
        assert_eq!(out.iter().map(|e| e.key).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn drops_events_past_allowed_lateness() {
        let mut buf = ReorderBuffer::new(10);
        let mut out = Vec::new();
        buf.push(Event::new(100, 0, 1.0), &mut out);
        // Frontier is 90; an event at 50 is too late.
        assert!(!buf.push(Event::new(50, 0, 2.0), &mut out));
        assert_eq!(buf.late_dropped(), 1);
        // An event at 95 is within lateness.
        assert!(buf.push(Event::new(95, 0, 3.0), &mut out));
        buf.flush(&mut out);
        assert_eq!(out.iter().map(|e| e.ts).collect::<Vec<_>>(), vec![95, 100]);
    }

    #[test]
    fn watermark_advances_release() {
        let mut buf = ReorderBuffer::new(1_000);
        let mut out = Vec::new();
        buf.push(Event::new(10, 0, 1.0), &mut out);
        buf.push(Event::new(20, 0, 2.0), &mut out);
        assert!(out.is_empty(), "still within lateness");
        buf.advance(500, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(buf.buffered(), 0);
    }

    /// A shuffled stream through the buffer + engine produces the same
    /// results as the ordered stream fed directly.
    #[test]
    fn engine_behind_buffer_matches_ordered_run() {
        let queries = || {
            vec![Query::new(
                1,
                WindowSpec::tumbling_time(100).unwrap(),
                AggFunction::Average,
            )]
        };
        let ordered: Vec<Event> = (0..2_000u64)
            .map(|i| Event::new(i, (i % 3) as u32, i as f64))
            .collect();
        // Deterministic bounded shuffle: swap within blocks of 16.
        let mut shuffled = ordered.clone();
        for block in shuffled.chunks_mut(16) {
            block.reverse();
        }

        let mut reference = AggregationEngine::new(queries()).unwrap();
        for ev in &ordered {
            reference.on_event(ev);
        }
        reference.on_watermark(3_000);
        let mut expected = reference.drain_results();

        let mut engine = AggregationEngine::new(queries()).unwrap();
        let mut buf = ReorderBuffer::new(32);
        let mut released = Vec::new();
        for ev in &shuffled {
            buf.push(*ev, &mut released);
            for e in released.drain(..) {
                engine.on_event(&e);
            }
        }
        buf.flush(&mut released);
        for e in released.drain(..) {
            engine.on_event(&e);
        }
        engine.on_watermark(3_000);
        let mut actual = engine.drain_results();

        let key = |r: &crate::query::QueryResult| (r.query, r.window_start, r.key);
        expected.sort_by_key(key);
        actual.sort_by_key(key);
        assert_eq!(expected, actual);
        assert_eq!(buf.late_dropped(), 0);
    }
}
