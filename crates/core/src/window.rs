//! Window types and measures (paper Section 2.1).
//!
//! Desis supports the three Dataflow-model window types — tumbling, sliding
//! and session — plus *user-defined* windows delimited by marker events, in
//! both *time* and *count* measures.
//!
//! A window is delimited by two *punctuations*: a start punctuation (`sp`)
//! and an end punctuation (`ep`) (Section 4.1). For fixed-size time windows
//! the punctuation times are computable in advance; for sessions and
//! user-defined windows they depend on the data.

use crate::error::DesisError;
use crate::event::MarkerChannel;
use crate::time::{next_multiple_after, next_progression_after, DurationMs, EventCount, Timestamp};

/// How the extent of a window is measured (Section 2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Measure {
    /// Window length is a span of event time (milliseconds).
    Time,
    /// Window length is a number of events.
    Count,
}

/// The shape of a window (Section 2.1).
///
/// Lengths/steps are interpreted according to the [`Measure`] of the
/// enclosing [`WindowSpec`]: milliseconds for [`Measure::Time`], events for
/// [`Measure::Count`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WindowKind {
    /// Gap-free, non-overlapping windows of fixed length.
    Tumbling {
        /// Window length.
        length: u64,
    },
    /// Fixed-length windows starting every `step` units; overlap when
    /// `step < length`.
    Sliding {
        /// Window length.
        length: u64,
        /// Distance between consecutive window starts.
        step: u64,
    },
    /// Data-driven windows that close after `gap` of event-time inactivity.
    /// Always time-measured.
    Session {
        /// Inactivity gap that terminates the session.
        gap: DurationMs,
    },
    /// Windows delimited by user-defined start/end marker events on a
    /// channel (e.g. per-trip windows). Always data-driven.
    UserDefined {
        /// Marker channel that delimits these windows.
        channel: MarkerChannel,
    },
}

/// A complete window definition: kind + measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WindowSpec {
    /// Shape of the window.
    pub kind: WindowKind,
    /// Unit in which window extents are measured.
    pub measure: Measure,
}

impl WindowSpec {
    /// A time-measured tumbling window of `length` milliseconds.
    pub fn tumbling_time(length: DurationMs) -> Result<Self, DesisError> {
        if length == 0 {
            return Err(DesisError::InvalidWindow("tumbling length must be > 0"));
        }
        Ok(Self {
            kind: WindowKind::Tumbling { length },
            measure: Measure::Time,
        })
    }

    /// A time-measured sliding window (`length` ms, advancing every `step` ms).
    pub fn sliding_time(length: DurationMs, step: DurationMs) -> Result<Self, DesisError> {
        if length == 0 || step == 0 {
            return Err(DesisError::InvalidWindow(
                "sliding length and step must be > 0",
            ));
        }
        if step > length {
            return Err(DesisError::InvalidWindow(
                "sliding step must not exceed length (would drop events)",
            ));
        }
        Ok(Self {
            kind: WindowKind::Sliding { length, step },
            measure: Measure::Time,
        })
    }

    /// A session window closing after `gap` milliseconds of inactivity.
    pub fn session(gap: DurationMs) -> Result<Self, DesisError> {
        if gap == 0 {
            return Err(DesisError::InvalidWindow("session gap must be > 0"));
        }
        Ok(Self {
            kind: WindowKind::Session { gap },
            measure: Measure::Time,
        })
    }

    /// A user-defined window delimited by markers on `channel`.
    pub fn user_defined(channel: MarkerChannel) -> Self {
        Self {
            kind: WindowKind::UserDefined { channel },
            measure: Measure::Time,
        }
    }

    /// A count-measured tumbling window of `length` events.
    pub fn tumbling_count(length: EventCount) -> Result<Self, DesisError> {
        if length == 0 {
            return Err(DesisError::InvalidWindow("tumbling length must be > 0"));
        }
        Ok(Self {
            kind: WindowKind::Tumbling { length },
            measure: Measure::Count,
        })
    }

    /// A count-measured sliding window.
    pub fn sliding_count(length: EventCount, step: EventCount) -> Result<Self, DesisError> {
        if length == 0 || step == 0 {
            return Err(DesisError::InvalidWindow(
                "sliding length and step must be > 0",
            ));
        }
        if step > length {
            return Err(DesisError::InvalidWindow(
                "sliding step must not exceed length (would drop events)",
            ));
        }
        Ok(Self {
            kind: WindowKind::Sliding { length, step },
            measure: Measure::Count,
        })
    }

    /// Whether window boundaries are fully determined by the spec
    /// (tumbling/sliding), as opposed to depending on the data
    /// (session/user-defined). Paper Section 5.1.1 vs 5.1.2.
    #[inline]
    pub fn is_fixed_size(&self) -> bool {
        matches!(
            self.kind,
            WindowKind::Tumbling { .. } | WindowKind::Sliding { .. }
        )
    }

    /// Whether this is a time-measured fixed-size window, i.e. all its
    /// punctuation times are computable in advance.
    #[inline]
    pub fn has_precomputable_puncts(&self) -> bool {
        self.measure == Measure::Time && self.is_fixed_size()
    }

    /// For time-measured fixed windows: the earliest punctuation (start *or*
    /// end of any window instance) strictly after `ts`.
    ///
    /// Returns `None` for data-driven or count-measured windows, whose
    /// punctuations are not time-computable, and when no further
    /// punctuation is representable: a window whose end lies past
    /// `u64::MAX` never fires.
    pub fn next_time_punct_after(&self, ts: Timestamp) -> Option<Timestamp> {
        if !self.has_precomputable_puncts() {
            return None;
        }
        self.next_fixed_punct_after(ts)
    }

    /// For count-measured fixed windows: the earliest punctuation (in event
    /// counts) strictly after `count` events have been ingested; `None`
    /// once it is no longer representable.
    pub fn next_count_punct_after(&self, count: EventCount) -> Option<EventCount> {
        if self.measure != Measure::Count {
            return None;
        }
        self.next_fixed_punct_after(count)
    }

    /// The earliest window start or end strictly after `p`, in the
    /// window's own measure.
    fn next_fixed_punct_after(&self, p: u64) -> Option<u64> {
        match self.kind {
            // Starts and ends coincide at multiples of `length`.
            WindowKind::Tumbling { length } => next_multiple_after(p, length),
            WindowKind::Sliding { length, step } => {
                // Starts at k*step; ends at k*step + length. Either may
                // be the last representable one.
                let next_start = next_multiple_after(p, step);
                let next_end = next_progression_after(p, step, length);
                next_start.into_iter().chain(next_end).min()
            }
            _ => None,
        }
    }

    /// For fixed windows: does a window instance *end* exactly at
    /// punctuation `p` (a time for time-measure, a count for count-measure)?
    /// If so, returns the start of that instance.
    pub fn fixed_window_ending_at(&self, p: u64) -> Option<u64> {
        if !self.is_fixed_size() {
            return None;
        }
        match self.kind {
            WindowKind::Tumbling { length } => {
                (p > 0 && p.is_multiple_of(length)).then(|| p - length)
            }
            WindowKind::Sliding { length, step } => {
                // A window [k*step, k*step + length) ends at p iff
                // p >= length and (p - length) is a multiple of step.
                (p >= length && (p - length).is_multiple_of(step)).then(|| p - length)
            }
            _ => None,
        }
    }

    /// For fixed windows: does a window instance *start* exactly at
    /// punctuation `p`?
    pub fn fixed_window_starting_at(&self, p: u64) -> bool {
        match self.kind {
            WindowKind::Tumbling { length } => p.is_multiple_of(length),
            WindowKind::Sliding { step, .. } => p.is_multiple_of(step),
            _ => false,
        }
    }

    /// The session gap, if this is a session window.
    #[inline]
    pub fn session_gap(&self) -> Option<DurationMs> {
        match self.kind {
            WindowKind::Session { gap } => Some(gap),
            _ => None,
        }
    }

    /// The marker channel, if this is a user-defined window.
    #[inline]
    pub fn marker_channel(&self) -> Option<MarkerChannel> {
        match self.kind {
            WindowKind::UserDefined { channel } => Some(channel),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_validate() {
        assert!(WindowSpec::tumbling_time(0).is_err());
        assert!(WindowSpec::sliding_time(10, 0).is_err());
        assert!(WindowSpec::sliding_time(10, 20).is_err());
        assert!(WindowSpec::session(0).is_err());
        assert!(WindowSpec::tumbling_count(0).is_err());
        assert!(WindowSpec::tumbling_time(1000).is_ok());
        assert!(WindowSpec::sliding_time(1000, 500).is_ok());
    }

    #[test]
    fn tumbling_puncts() {
        let w = WindowSpec::tumbling_time(1000).unwrap();
        assert_eq!(w.next_time_punct_after(0), Some(1000));
        assert_eq!(w.next_time_punct_after(999), Some(1000));
        assert_eq!(w.next_time_punct_after(1000), Some(2000));
    }

    #[test]
    fn sliding_puncts_interleave_starts_and_ends() {
        // length 25, step 10: starts 0,10,20,...; ends 25,35,45,...
        let w = WindowSpec::sliding_time(25, 10).unwrap();
        let mut puncts = Vec::new();
        let mut t = 0;
        for _ in 0..8 {
            t = w.next_time_punct_after(t).unwrap();
            puncts.push(t);
        }
        assert_eq!(puncts, vec![10, 20, 25, 30, 35, 40, 45, 50]);
    }

    #[test]
    fn sliding_window_end_detection() {
        let w = WindowSpec::sliding_time(25, 10).unwrap();
        assert_eq!(w.fixed_window_ending_at(25), Some(0));
        assert_eq!(w.fixed_window_ending_at(35), Some(10));
        assert_eq!(w.fixed_window_ending_at(30), None);
        assert_eq!(w.fixed_window_ending_at(10), None);
    }

    #[test]
    fn tumbling_window_end_detection() {
        let w = WindowSpec::tumbling_time(1000).unwrap();
        assert_eq!(w.fixed_window_ending_at(1000), Some(0));
        assert_eq!(w.fixed_window_ending_at(3000), Some(2000));
        assert_eq!(w.fixed_window_ending_at(1500), None);
        assert_eq!(w.fixed_window_ending_at(0), None);
    }

    #[test]
    fn window_start_detection() {
        let t = WindowSpec::tumbling_time(1000).unwrap();
        assert!(t.fixed_window_starting_at(0));
        assert!(t.fixed_window_starting_at(2000));
        assert!(!t.fixed_window_starting_at(2500));

        let s = WindowSpec::sliding_time(25, 10).unwrap();
        assert!(s.fixed_window_starting_at(40));
        assert!(!s.fixed_window_starting_at(45));
    }

    #[test]
    fn session_and_user_defined_have_no_time_puncts() {
        assert_eq!(
            WindowSpec::session(500).unwrap().next_time_punct_after(0),
            None
        );
        assert_eq!(WindowSpec::user_defined(1).next_time_punct_after(0), None);
    }

    #[test]
    fn count_puncts() {
        let w = WindowSpec::tumbling_count(100).unwrap();
        assert_eq!(w.next_count_punct_after(0), Some(100));
        assert_eq!(w.next_count_punct_after(100), Some(200));
        assert_eq!(w.next_time_punct_after(0), None);

        let s = WindowSpec::sliding_count(100, 40).unwrap();
        // starts: 40, 80, 120...; ends: 100, 140, ...
        assert_eq!(s.next_count_punct_after(0), Some(40));
        assert_eq!(s.next_count_punct_after(80), Some(100));
        assert_eq!(s.next_count_punct_after(100), Some(120));
    }

    #[test]
    fn fixedness_classification() {
        assert!(WindowSpec::tumbling_time(10).unwrap().is_fixed_size());
        assert!(WindowSpec::sliding_time(10, 5).unwrap().is_fixed_size());
        assert!(!WindowSpec::session(10).unwrap().is_fixed_size());
        assert!(!WindowSpec::user_defined(0).is_fixed_size());
        assert!(WindowSpec::tumbling_time(10)
            .unwrap()
            .has_precomputable_puncts());
        assert!(!WindowSpec::tumbling_count(10)
            .unwrap()
            .has_precomputable_puncts());
    }

    #[test]
    fn accessors() {
        assert_eq!(WindowSpec::session(7).unwrap().session_gap(), Some(7));
        assert_eq!(WindowSpec::tumbling_time(7).unwrap().session_gap(), None);
        assert_eq!(WindowSpec::user_defined(3).marker_channel(), Some(3));
        assert_eq!(WindowSpec::session(7).unwrap().marker_channel(), None);
    }
}
