//! Stream events.
//!
//! Events follow the four-field layout of the paper's data generator
//! (Section 6.1.2): a timestamp, a key, a value, and an optional
//! *user-defined event* marker that delimits user-defined windows
//! (e.g. "trip started" / "trip ended" for a per-trip maximum-speed query).

use crate::time::Timestamp;

/// Key identifying the logical sub-stream an event belongs to
/// (e.g. speed / temperature / humidity readings, or a sensor id).
pub type Key = u32;

/// Identifies one family of user-defined windows. Markers on channel `c`
/// only affect user-defined window queries listening on channel `c`.
pub type MarkerChannel = u32;

/// Which boundary a user-defined marker event denotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MarkerKind {
    /// Opens a new user-defined window on the channel.
    Start,
    /// Closes the currently open user-defined window on the channel.
    End,
}

/// A user-defined window boundary carried by an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Marker {
    /// The user-defined window family this marker belongs to.
    pub channel: MarkerChannel,
    /// Whether the marker opens or closes a window.
    pub kind: MarkerKind,
}

/// A single stream event.
///
/// `Event` is `Copy` and 32 bytes so that hot paths move it in registers
/// and vectors of events stay cache friendly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Event-time timestamp (milliseconds since stream epoch).
    pub ts: Timestamp,
    /// Sub-stream key.
    pub key: Key,
    /// Measured value to aggregate.
    pub value: f64,
    /// Optional user-defined window boundary.
    pub marker: Option<Marker>,
}

impl Event {
    /// Creates a plain data event with no marker.
    #[inline]
    pub fn new(ts: Timestamp, key: Key, value: f64) -> Self {
        Self {
            ts,
            key,
            value,
            marker: None,
        }
    }

    /// Creates an event that also carries a user-defined window marker.
    #[inline]
    pub fn with_marker(ts: Timestamp, key: Key, value: f64, marker: Marker) -> Self {
        Self {
            ts,
            key,
            value,
            marker: Some(marker),
        }
    }

    /// Returns the marker if this event opens a user-defined window on
    /// `channel`.
    #[inline]
    pub fn starts_channel(&self, channel: MarkerChannel) -> bool {
        matches!(
            self.marker,
            Some(Marker { channel: c, kind: MarkerKind::Start }) if c == channel
        )
    }

    /// Returns the marker if this event closes a user-defined window on
    /// `channel`.
    #[inline]
    pub fn ends_channel(&self, channel: MarkerChannel) -> bool {
        matches!(
            self.marker,
            Some(Marker { channel: c, kind: MarkerKind::End }) if c == channel
        )
    }
}

/// A watermark: a promise that no further event with `ts <= watermark`
/// will arrive on this stream. Watermarks flush session and user-defined
/// windows that would otherwise wait forever (Section 5.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Watermark(pub Timestamp);

/// A batch of events moved through an ingestion pipeline as one unit.
///
/// Per-event channel sends and codec calls dominate ingestion cost long
/// before the slicer does; generators, links, and the engine inlets
/// therefore hand events around in `EventBatch`es and amortize that
/// overhead over `len()` events. The wrapper is deliberately thin — a
/// `Vec<Event>` plus helpers — so batching never changes *which* events
/// flow, only how many cross a boundary per call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventBatch {
    events: Vec<Event>,
}

impl EventBatch {
    /// An empty batch with room for `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            events: Vec::with_capacity(capacity),
        }
    }

    /// Appends one event.
    #[inline]
    pub fn push(&mut self, ev: Event) {
        self.events.push(ev);
    }

    /// Appends a slice of events with one copy.
    #[inline]
    pub fn extend_from_slice(&mut self, events: &[Event]) {
        self.events.extend_from_slice(events);
    }

    /// Number of batched events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the batch holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The batched events, in ingestion order.
    pub fn as_slice(&self) -> &[Event] {
        &self.events
    }

    /// Unwraps into the underlying vector (for wire messages).
    pub fn into_vec(self) -> Vec<Event> {
        self.events
    }

    /// Empties the batch, keeping its capacity.
    pub(crate) fn clear(&mut self) {
        self.events.clear();
    }

    /// Takes the batched events out, leaving the (allocated) batch empty.
    pub fn take(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.events)
    }

    /// Splits the batch into `shards` per-shard batches by `key % shards`,
    /// preserving the relative order of events within each shard — the
    /// partitioning a key-sharded engine relies on for per-key exactness.
    /// Each part starts with room for an even share of the batch.
    pub fn partition_by_key(&self, shards: usize) -> Vec<Vec<Event>> {
        let shards = shards.max(1);
        let share = self.events.len().div_ceil(shards);
        let mut parts: Vec<Vec<Event>> = (0..shards).map(|_| Vec::with_capacity(share)).collect();
        for ev in &self.events {
            parts[ev.key as usize % shards].push(*ev);
        }
        parts
    }
}

impl From<Vec<Event>> for EventBatch {
    fn from(events: Vec<Event>) -> Self {
        Self { events }
    }
}

impl FromIterator<Event> for EventBatch {
    fn from_iter<I: IntoIterator<Item = Event>>(iter: I) -> Self {
        Self {
            events: iter.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a EventBatch {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_is_small() {
        // Hot-path type: keep it within two cache-line quarters.
        assert!(std::mem::size_of::<Event>() <= 32);
    }

    #[test]
    fn marker_channel_matching() {
        let start = Event::with_marker(
            5,
            1,
            2.0,
            Marker {
                channel: 7,
                kind: MarkerKind::Start,
            },
        );
        assert!(start.starts_channel(7));
        assert!(!start.starts_channel(8));
        assert!(!start.ends_channel(7));

        let end = Event::with_marker(
            9,
            1,
            2.0,
            Marker {
                channel: 7,
                kind: MarkerKind::End,
            },
        );
        assert!(end.ends_channel(7));
        assert!(!end.starts_channel(7));
    }

    #[test]
    fn plain_event_matches_no_channel() {
        let ev = Event::new(1, 2, 3.0);
        assert!(!ev.starts_channel(0));
        assert!(!ev.ends_channel(0));
    }

    #[test]
    fn batch_partition_preserves_per_shard_order() {
        let batch: EventBatch = (0..10u64)
            .map(|i| Event::new(i, (i % 3) as u32, i as f64))
            .collect();
        assert_eq!(batch.len(), 10);
        let parts = batch.partition_by_key(3);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), 10);
        for (shard, part) in parts.iter().enumerate() {
            assert!(part.iter().all(|ev| ev.key as usize % 3 == shard));
            assert!(part.windows(2).all(|w| w[0].ts <= w[1].ts));
        }
        // One shard sees everything when shards == 1 (and 0 is clamped).
        assert_eq!(batch.partition_by_key(1)[0].len(), 10);
        assert_eq!(batch.partition_by_key(0).len(), 1);
    }

    #[test]
    fn batch_take_leaves_empty() {
        let mut batch = EventBatch::with_capacity(4);
        batch.push(Event::new(1, 0, 1.0));
        assert!(!batch.is_empty());
        let taken = batch.take();
        assert_eq!(taken.len(), 1);
        assert!(batch.is_empty());
        assert_eq!(EventBatch::from(taken).as_slice().len(), 1);
    }
}
