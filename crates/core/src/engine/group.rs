//! Compiled query-groups (paper Section 4.1).
//!
//! A *query-group* is a set of queries whose partial results can be shared
//! and in which every event is processed exactly once. The query analyzer
//! compiles raw [`Query`] definitions into a [`QueryGroup`]: selections are
//! deduplicated, aggregation functions are lowered to a per-selection
//! operator set, and the execution mode is classified. The punctuation
//! machinery (fixed time, count, session, marker) is the slicer's to read
//! off the member windows.

use crate::aggregate::OperatorSet;
use crate::predicate::Predicate;
use crate::query::{Query, QueryId};
use crate::window::{Measure, WindowKind};

/// Index of a query-group within an engine.
pub type GroupId = u32;

/// Index of a deduplicated selection within a group.
pub type SelectionId = u32;

/// A deduplicated selection: one predicate plus the union of operators
/// required by every query using it (with sort subsumption applied).
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// The predicate shared by all queries of this selection.
    pub predicate: Predicate,
    /// Operators executed per event for this selection.
    pub operators: OperatorSet,
}

/// A query compiled into its group: the original definition plus the
/// selection it reads from.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledQuery {
    /// Original query definition.
    pub query: Query,
    /// Selection this query's windows aggregate over.
    pub selection: SelectionId,
}

/// How a group executes in a decentralized deployment (Section 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupExecution {
    /// Decomposable, time-measured: slices are computed on every node and
    /// only partial results travel upward (Section 5.1).
    Decentralized,
    /// Non-decomposable functions: local/intermediate nodes slice and
    /// pre-sort, shipping sorted slice batches; the root finalizes
    /// (Section 5.2).
    RootSorted,
    /// Count-measured windows with decomposable functions: only the root
    /// can terminate count windows, so events are forwarded raw
    /// (Section 5.2).
    RootRaw,
}

/// A compiled query-group, ready to drive a slicer.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryGroup {
    /// Group id within the engine.
    pub id: GroupId,
    /// Member queries.
    pub queries: Vec<CompiledQuery>,
    /// Deduplicated selections (pairwise equal-or-disjoint predicates).
    pub selections: Vec<Selection>,
    /// Decentralized execution mode.
    pub execution: GroupExecution,
}

impl QueryGroup {
    /// Builds a group from member queries and their selection assignment.
    ///
    /// Prefer [`QueryAnalyzer`](crate::engine::QueryAnalyzer), which
    /// derives the grouping; this constructor is for callers that already
    /// know it. `predicates` must be pairwise compatible (identical or
    /// disjoint); this is asserted in debug builds.
    pub fn build(
        id: GroupId,
        members: Vec<(Query, SelectionId)>,
        predicates: Vec<Predicate>,
    ) -> Self {
        #[cfg(debug_assertions)]
        for (i, a) in predicates.iter().enumerate() {
            for b in predicates.iter().skip(i + 1) {
                debug_assert!(
                    a.compatible(b),
                    "incompatible predicates in one group: {a:?} vs {b:?}"
                );
            }
        }
        let mut selections: Vec<Selection> = predicates
            .into_iter()
            .map(|predicate| Selection {
                predicate,
                operators: OperatorSet::EMPTY,
            })
            .collect();
        let mut queries = Vec::with_capacity(members.len());
        for (query, selection) in members {
            selections[selection as usize].operators |= query.operator_set();
            queries.push(CompiledQuery { query, selection });
        }
        for sel in &mut selections {
            sel.operators = sel.operators.subsume_sorts();
        }
        let execution = Self::classify_execution(&queries);
        Self {
            id,
            queries,
            selections,
            execution,
        }
    }

    fn classify_execution(queries: &[CompiledQuery]) -> GroupExecution {
        let any_non_decomposable = queries.iter().any(|cq| !cq.query.is_decomposable());
        let any_count = queries
            .iter()
            .any(|cq| cq.query.window.measure == Measure::Count);
        // Count windows can only be terminated by the root, and sorted
        // slice batches lose the per-event order they need, so raw
        // forwarding dominates the classification.
        if any_count {
            GroupExecution::RootRaw
        } else if any_non_decomposable {
            GroupExecution::RootSorted
        } else {
            GroupExecution::Decentralized
        }
    }

    /// Looks up a member query by id.
    pub fn query_index(&self, id: QueryId) -> Option<usize> {
        self.queries.iter().position(|cq| cq.query.id == id)
    }

    /// Whether any member query uses a data-driven (session/user-defined)
    /// window.
    pub fn has_unfixed_windows(&self) -> bool {
        self.queries.iter().any(|cq| {
            matches!(
                cq.query.window.kind,
                WindowKind::Session { .. } | WindowKind::UserDefined { .. }
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{AggFunction, OperatorKind};
    use crate::window::WindowSpec;

    fn q(id: QueryId, window: WindowSpec, f: AggFunction) -> Query {
        Query::new(id, window, f)
    }

    #[test]
    fn build_unions_operators_per_selection() {
        let t = WindowSpec::tumbling_time(1000).unwrap();
        let g = QueryGroup::build(
            0,
            vec![
                (q(1, t, AggFunction::Average), 0),
                (q(2, t, AggFunction::Sum), 0),
            ],
            vec![Predicate::True],
        );
        assert_eq!(g.selections.len(), 1);
        assert_eq!(g.selections[0].operators.len(), 2); // sum + count shared
        assert_eq!(g.execution, GroupExecution::Decentralized);
    }

    #[test]
    fn sort_subsumption_applies_per_selection() {
        let t = WindowSpec::tumbling_time(1000).unwrap();
        let g = QueryGroup::build(
            0,
            vec![
                (q(1, t, AggFunction::Max), 0),
                (q(2, t, AggFunction::Quantile(0.9)), 0),
            ],
            vec![Predicate::True],
        );
        assert_eq!(g.selections[0].operators.len(), 1);
        assert!(g.selections[0]
            .operators
            .contains(OperatorKind::NonDecomposableSort));
        assert_eq!(g.execution, GroupExecution::RootSorted);
    }

    #[test]
    fn count_windows_classify_root_raw() {
        let c = WindowSpec::tumbling_count(100).unwrap();
        let g = QueryGroup::build(
            0,
            vec![(q(1, c, AggFunction::Sum), 0)],
            vec![Predicate::True],
        );
        assert_eq!(g.execution, GroupExecution::RootRaw);
    }

    #[test]
    fn spec_extraction() {
        let t = WindowSpec::tumbling_time(1000).unwrap();
        let s = WindowSpec::sliding_time(2000, 500).unwrap();
        let sess = WindowSpec::session(300).unwrap();
        let ud = WindowSpec::user_defined(2);
        let g = QueryGroup::build(
            0,
            vec![
                (q(1, t, AggFunction::Sum), 0),
                (q(2, t, AggFunction::Count), 0),
                (q(3, s, AggFunction::Sum), 0),
                (q(4, sess, AggFunction::Sum), 0),
                (q(5, ud, AggFunction::Sum), 0),
            ],
            vec![Predicate::True],
        );
        assert!(g.has_unfixed_windows());
        assert_eq!(g.query_index(4), Some(3));
        assert_eq!(g.query_index(99), None);
    }
}
