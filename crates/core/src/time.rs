//! Logical time for the Desis engine.
//!
//! All windowing in Desis is *event-time* driven: windows open and close
//! based on the timestamps carried by events, never on the wall clock. This
//! makes every component deterministic and testable while matching the
//! semantics of the paper's generators, which stamp each event at creation.
//!
//! Timestamps are milliseconds since an arbitrary per-stream epoch. `u64`
//! milliseconds cover ~584 million years, which is enough for any stream.

/// Event-time instant in milliseconds since the stream epoch.
pub type Timestamp = u64;

/// Event-time duration in milliseconds.
pub type DurationMs = u64;

/// Number of events, for count-measured windows.
pub type EventCount = u64;

/// Milliseconds in one second, for readable window specs.
pub const SECOND: DurationMs = 1_000;

/// Milliseconds in one minute.
pub const MINUTE: DurationMs = 60 * SECOND;

/// Returns the smallest multiple of `step` that is strictly greater than
/// `ts`. This is how fixed-size time windows compute their next punctuation
/// *in advance*: the engine caches the result and compares each incoming
/// event against it with a single branch instead of re-deriving window
/// boundaries per event (Section 6.2.1 of the paper).
///
/// `None` when that multiple lies past `u64::MAX`: there is no further
/// punctuation, so a window whose end is not representable never fires.
#[inline]
pub fn next_multiple_after(ts: Timestamp, step: DurationMs) -> Option<Timestamp> {
    debug_assert!(step > 0, "window step must be positive");
    (ts / step).checked_add(1)?.checked_mul(step)
}

/// Returns the smallest value of the form `k * step + offset` (k >= 0) that
/// is strictly greater than `ts`, or `offset` itself if `ts < offset`.
///
/// Sliding windows of length `l` and step `s` end at times `k * s + l`;
/// those end punctuations form an arithmetic progression with offset
/// `l % s` once the stream has warmed up, but the very first windows end
/// earlier, so we compute the progression exactly. `None` past `u64::MAX`,
/// as for [`next_multiple_after`].
#[inline]
pub fn next_progression_after(
    ts: Timestamp,
    step: DurationMs,
    offset: DurationMs,
) -> Option<Timestamp> {
    debug_assert!(step > 0, "window step must be positive");
    if ts < offset {
        return Some(offset);
    }
    next_multiple_after(ts - offset, step)?.checked_add(offset)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_multiple_is_strictly_after() {
        assert_eq!(next_multiple_after(0, 10), Some(10));
        assert_eq!(next_multiple_after(9, 10), Some(10));
        assert_eq!(next_multiple_after(10, 10), Some(20));
        assert_eq!(next_multiple_after(11, 10), Some(20));
    }

    #[test]
    fn next_multiple_step_one() {
        assert_eq!(next_multiple_after(41, 1), Some(42));
    }

    #[test]
    fn progression_before_offset_returns_offset() {
        // Sliding length 25, step 10: ends at 25, 35, 45, ...
        assert_eq!(next_progression_after(0, 10, 25), Some(25));
        assert_eq!(next_progression_after(24, 10, 25), Some(25));
    }

    #[test]
    fn progression_after_offset() {
        assert_eq!(next_progression_after(25, 10, 25), Some(35));
        assert_eq!(next_progression_after(26, 10, 25), Some(35));
        assert_eq!(next_progression_after(44, 10, 25), Some(45));
        assert_eq!(next_progression_after(45, 10, 25), Some(55));
    }

    #[test]
    fn progression_zero_offset_matches_multiple() {
        for ts in [0u64, 1, 9, 10, 99, 100, 101] {
            assert_eq!(
                next_progression_after(ts, 10, 0),
                next_multiple_after(ts, 10)
            );
        }
    }

    #[test]
    fn no_punctuation_past_u64_max() {
        const MAX: u64 = u64::MAX; // ends in …615
        assert_eq!(next_multiple_after(MAX - 6, 10), Some(MAX - 5));
        assert_eq!(next_multiple_after(MAX - 5, 10), None);
        assert_eq!(next_multiple_after(MAX, 1), None);
        assert_eq!(next_multiple_after(MAX - 1, 1), Some(MAX));
        assert_eq!(next_progression_after(MAX - 11, 10, 25), Some(MAX - 10));
        assert_eq!(next_progression_after(MAX - 10, 10, 25), Some(MAX));
        assert_eq!(next_progression_after(MAX, 10, 25), None);
        assert_eq!(next_progression_after(3, 10, MAX), Some(MAX));
    }
}
