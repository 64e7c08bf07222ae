//! Slices and their partial results (paper Section 4.1).
//!
//! A slice is a maximal stream segment that crosses no window boundary of
//! any query in the group. Every window of every member query is exactly a
//! contiguous run of slices, so windows are identified by *slice-id
//! ranges*; ids auto-increment, which is also what lets decentralized
//! nodes merge partials by id (Section 5.1.1).

use rustc_hash::FxHashMap;

use crate::aggregate::OperatorBundle;
use crate::engine::merge::merge_keyed;
use crate::event::Key;
use crate::obs::trace::TraceId;
use crate::query::QueryId;
use crate::time::Timestamp;

/// Auto-incrementing slice identifier within a query-group.
pub type SliceId = u64;

/// Partial results of one slice: one keyed bundle map per selection of the
/// group.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SliceData {
    /// `per_selection[s][k]` holds the operator states of selection `s`
    /// for key `k` within this slice.
    pub per_selection: Vec<FxHashMap<Key, OperatorBundle>>,
}

impl SliceData {
    /// Empty data for `n` selections.
    pub fn new(selections: usize) -> Self {
        Self {
            per_selection: vec![FxHashMap::default(); selections],
        }
    }

    /// Whether no selection recorded any event.
    pub fn is_empty(&self) -> bool {
        self.per_selection.iter().all(FxHashMap::is_empty)
    }

    /// Total scalar payload (for network accounting).
    pub fn payload_len(&self) -> usize {
        self.per_selection
            .iter()
            .flat_map(|m| m.values())
            .map(OperatorBundle::payload_len)
            .sum()
    }

    /// Seals every bundle (final sort of non-decomposable sorts).
    pub fn seal(&mut self) {
        for map in &mut self.per_selection {
            for bundle in map.values_mut() {
                bundle.seal();
            }
        }
    }

    /// Merges another slice's data into this one, selection by selection.
    /// Slices of one group share a layout; a slice decoded from a frame
    /// may declare fewer selections (an empty contribution) or more
    /// (kept; assemblers read only the selections their group has).
    pub fn merge(&mut self, other: &SliceData) {
        if self.per_selection.len() < other.per_selection.len() {
            self.per_selection
                .resize_with(other.per_selection.len(), FxHashMap::default);
        }
        for (mine, theirs) in self.per_selection.iter_mut().zip(&other.per_selection) {
            merge_keyed(mine, theirs);
        }
    }
}

/// A window termination notice: window of `query` covering the slice-id
/// range `first_slice ..= last_slice`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowEnd {
    /// Terminated query.
    pub query: QueryId,
    /// First slice of the window.
    pub first_slice: SliceId,
    /// Last slice of the window (inclusive).
    pub last_slice: SliceId,
    /// Window start in event time (informational).
    pub start_ts: Timestamp,
    /// Window end in event time (informational).
    pub end_ts: Timestamp,
}

/// A session gap observed on this node: the inactivity interval that
/// terminated a local session slice. Decentralized session merging keeps
/// the latest gap per child and ends the global session once all child
/// gaps cover each other (Section 5.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionGap {
    /// The session query.
    pub query: QueryId,
    /// Last event timestamp of the local session (gap start).
    pub gap_start: Timestamp,
    /// `gap_start + gap` (gap end).
    pub gap_end: Timestamp,
}

/// A sealed slice with its partial results and windowing annotations.
#[derive(Debug, Clone, PartialEq)]
pub struct SealedSlice {
    /// Auto-incrementing slice id.
    pub id: SliceId,
    /// Slice start (event time, inclusive).
    pub start_ts: Timestamp,
    /// Slice end (event time, exclusive for time punctuations).
    pub end_ts: Timestamp,
    /// Partial results.
    pub data: SliceData,
    /// Windows that terminate with this slice, i.e. end punctuations
    /// attached to the slice (Section 5.1.1 marks slices with `ep`s).
    pub ends: Vec<WindowEnd>,
    /// Session gaps that sealed this slice (for decentralized merging).
    pub session_gaps: Vec<SessionGap>,
    /// Smallest slice id still needed by any active window after this
    /// slice's `ends` are processed; older slices can be dropped.
    pub low_watermark: SliceId,
    /// Same watermark in event time: the earliest window start still
    /// active. Decentralized roots garbage-collect by time, since slice
    /// ids are child-local (Section 5.1).
    pub low_watermark_ts: Timestamp,
    /// Provenance identity minted at slice creation when tracing is
    /// sampled; follows the slice over the wire and through every merge
    /// level (see [`crate::obs::trace`]). `None` for untraced slices.
    pub trace: Option<TraceId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{AggFunction, OperatorSet};

    fn data_with(selections: usize, sel: usize, key: Key, values: &[f64]) -> SliceData {
        let mut d = SliceData::new(selections);
        let set = AggFunction::Average.operators() | AggFunction::Median.operators();
        let bundle = d.per_selection[sel]
            .entry(key)
            .or_insert_with(|| OperatorBundle::new(OperatorSet::from_iter(set.iter())));
        for v in values {
            bundle.update(*v);
        }
        d.seal();
        d
    }

    #[test]
    fn emptiness() {
        assert!(SliceData::new(2).is_empty());
        assert!(!data_with(2, 0, 1, &[1.0]).is_empty());
    }

    #[test]
    fn merge_combines_keys_and_selections() {
        let mut a = data_with(2, 0, 1, &[1.0, 2.0]);
        let b = data_with(2, 0, 2, &[5.0]);
        let c = data_with(2, 1, 1, &[9.0]);
        a.merge(&b);
        a.merge(&c);
        assert_eq!(a.per_selection[0].len(), 2);
        assert_eq!(a.per_selection[1].len(), 1);
        assert_eq!(
            a.per_selection[0][&1].finalize(&AggFunction::Average),
            Some(1.5)
        );
        assert_eq!(
            a.per_selection[1][&1].finalize(&AggFunction::Median),
            Some(9.0)
        );
    }

    #[test]
    fn merge_same_key_merges_bundles() {
        let mut a = data_with(1, 0, 7, &[1.0, 3.0]);
        let b = data_with(1, 0, 7, &[5.0]);
        a.merge(&b);
        assert_eq!(
            a.per_selection[0][&7].finalize(&AggFunction::Average),
            Some(3.0)
        );
        assert_eq!(
            a.per_selection[0][&7].finalize(&AggFunction::Median),
            Some(3.0)
        );
    }

    #[test]
    fn payload_len_counts_scalars() {
        let d = data_with(1, 0, 1, &[1.0, 2.0, 3.0]);
        // sum + count scalars + 3 kept NSort values
        assert_eq!(d.payload_len(), 5);
    }
}
