//! The correctness gate every run passes through: over a fixed prefix of
//! the workload, the sequential engine, the sharded engine, the `star(2)`
//! cluster and the naive per-window baseline must produce byte-equal
//! sorted results — including, on the disordered workload, the events
//! that arrive displaced.

use desis_baselines::SystemKind;
use desis_core::query::{sort_results, QueryResult};
use desis_net::topology::Topology;

use crate::measure::{run_desis_cluster, run_seq, run_sharded, Tail};
use crate::sys::Placement;
use crate::workload::{Workload, LOCALS};

/// Outcome of the gate.
#[derive(Debug, Clone, Default)]
pub struct Gate {
    /// Events offered to the three systems under test plus the results
    /// the reference expects from each of them.
    pub attempted: u64,
    /// Events dropped or lost plus results missing or different.
    pub failed: u64,
    /// The reference results, canonically sorted.
    pub reference: Vec<QueryResult>,
    /// Human-readable findings, empty when everything agrees.
    pub findings: Vec<String>,
}

/// Results that differ between `got` and `want` (both canonically
/// sorted): positions that disagree plus the length difference.
pub fn mismatches(got: &[QueryResult], want: &[QueryResult]) -> u64 {
    let differing = got.iter().zip(want).filter(|(g, w)| g != w).count();
    (differing + got.len().abs_diff(want.len())) as u64
}

/// The naive per-window reference over the first `events` events in
/// timestamp order, every window flushed.
pub fn reference(w: &Workload, events: u64) -> Result<Vec<QueryResult>, String> {
    let mut naive = SystemKind::DeBucket
        .build(w.queries.clone())
        .map_err(|e| e.to_string())?;
    let ordered = w.ordered_prefix(events);
    for ev in &ordered {
        naive.on_event(ev);
    }
    let last = ordered.last().map_or(0, |ev| ev.ts);
    naive.on_watermark(last + w.flush_horizon_ms());
    let mut results = naive.drain_results();
    sort_results(&mut results);
    Ok(results)
}

impl Gate {
    /// Holds one system's sorted results against the reference.
    pub fn judge(&mut self, system: &str, got: &[QueryResult], lost_events: u64) {
        let wrong = mismatches(got, &self.reference);
        if wrong > 0 {
            self.findings.push(format!(
                "{system}: {wrong} results missing or different ({} vs {} in the reference)",
                got.len(),
                self.reference.len()
            ));
        }
        if lost_events > 0 {
            self.findings
                .push(format!("{system}: {lost_events} events dropped or lost"));
        }
        self.failed += wrong + lost_events;
    }
}

/// Checks the three systems against the reference over the gate prefix.
pub fn check(w: &Workload, placement: &Placement) -> Result<Gate, String> {
    let events = w.whole_laps(w.sizes.gate_events);
    let reference = reference(w, events)?;
    let mut gate = Gate {
        attempted: 3 * (events + reference.len() as u64),
        reference,
        ..Gate::default()
    };

    let mut seq = Vec::new();
    let (_, counts) = run_seq(w, events, Tail::Flush, Some(&mut seq))?;
    sort_results(&mut seq);
    gate.judge("sequential", &seq, counts.late_dropped);

    let mut sharded = Vec::new();
    let (_, counts) = run_sharded(w, events, Tail::Flush, placement, Some(&mut sharded))?;
    sort_results(&mut sharded);
    gate.judge("sharded", &sharded, counts.late_dropped);

    let feeds = Workload::feeds(&w.ordered_prefix(events));
    let run = run_desis_cluster(w, Topology::star(LOCALS), feeds, None, placement)?;
    // Everything below a lost child is lost with it; the report does not
    // say how much that was, so a lost child fails the whole prefix.
    let lost = if run.report.lost_children.is_empty() {
        events - run.report.events.min(events)
    } else {
        events
    };
    // Cluster results come canonically sorted already.
    gate.judge("star(2) cluster", &run.report.results, lost + run.nacks);
    Ok(gate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::NAMES;

    /// Same seed ⇒ identical counts and results, on every workload, and
    /// the four systems agree (smoke sizes keep this quick).
    #[test]
    fn smoke_gate_passes_and_repeats_exactly() {
        let placement = Placement::pin_feeder();
        for name in NAMES {
            let w = Workload::build(name, 3, true).expect("known workload");
            let first = check(&w, &placement).expect("gate runs");
            assert_eq!(first.failed, 0, "{name}: {:?}", first.findings);
            assert!(!first.reference.is_empty(), "{name}");
            let again = check(&w, &placement).expect("gate runs");
            assert_eq!(again.attempted, first.attempted, "{name}");
            assert_eq!(again.reference, first.reference, "{name}");
            let events = w.whole_laps(w.sizes.gate_events);
            let (_, a) = run_seq(&w, events, Tail::Cut, None).expect("runs");
            let (_, b) = run_seq(&w, events, Tail::Cut, None).expect("runs");
            assert_eq!(a, b, "{name}");
        }
    }

    #[test]
    fn mismatches_count_differences_and_missing_results() {
        let result = |query, key| QueryResult {
            query,
            key,
            window_start: 0,
            window_end: 10,
            values: vec![Some(1.0)],
        };
        let want = vec![result(1, 0), result(1, 1), result(2, 0)];
        assert_eq!(mismatches(&want, &want), 0);
        assert_eq!(mismatches(&want[..2], &want), 1);
        let mut off = want.clone();
        off[1].values = vec![Some(2.0)];
        assert_eq!(mismatches(&off, &want), 1);
        assert_eq!(mismatches(&[], &want), 3);
    }
}
