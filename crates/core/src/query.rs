//! Continuous queries.
//!
//! A query pairs a selection predicate with a window definition and one or
//! more aggregation functions (the paper's Figure 9e/9f workload computes
//! two functions per window). Results are grouped by event key, mirroring
//! the paper's "10 distinct keys" workloads.

use crate::aggregate::{AggFunction, OperatorSet};
use crate::error::DesisError;
use crate::predicate::Predicate;
use crate::window::WindowSpec;

/// Unique query identifier (assigned by the user or the query analyzer).
pub type QueryId = u64;

/// A continuous windowed aggregation query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Unique id; results are tagged with it.
    pub id: QueryId,
    /// Selection predicate applied to every event.
    pub predicate: Predicate,
    /// Window definition.
    pub window: WindowSpec,
    /// Aggregation functions computed per window (at least one).
    pub functions: Vec<AggFunction>,
}

impl Query {
    /// Creates a single-function query.
    pub fn new(id: QueryId, window: WindowSpec, function: AggFunction) -> Self {
        Self {
            id,
            predicate: Predicate::True,
            window,
            functions: vec![function],
        }
    }

    /// Creates a multi-function query.
    pub fn with_functions(id: QueryId, window: WindowSpec, functions: Vec<AggFunction>) -> Self {
        Self {
            id,
            predicate: Predicate::True,
            window,
            functions,
        }
    }

    /// Sets the selection predicate.
    #[must_use]
    pub fn filtered(mut self, predicate: Predicate) -> Self {
        self.predicate = predicate;
        self
    }

    /// Validates the query definition.
    pub fn validate(&self) -> Result<(), DesisError> {
        if self.functions.is_empty() {
            return Err(DesisError::InvalidQuery(format!(
                "query {} has no aggregation functions",
                self.id
            )));
        }
        for f in &self.functions {
            f.validate()?;
        }
        Ok(())
    }

    /// Union of the operators required by all functions of this query.
    pub fn operator_set(&self) -> OperatorSet {
        self.functions
            .iter()
            .map(AggFunction::operators)
            .fold(OperatorSet::EMPTY, |acc, s| acc | s)
    }

    /// Whether every function of the query is decomposable (Section 2.2),
    /// which decides whether the query can be aggregated decentrally
    /// (Section 5.1) or must ship events to the root (Section 5.2).
    pub fn is_decomposable(&self) -> bool {
        self.functions.iter().all(AggFunction::is_decomposable)
    }
}

/// The result of one window of one query for one key.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// The query that produced this result.
    pub query: QueryId,
    /// Event key this result aggregates over.
    pub key: crate::event::Key,
    /// Window start (event time, ms) — informational.
    pub window_start: crate::time::Timestamp,
    /// Window end (event time, ms) — informational.
    pub window_end: crate::time::Timestamp,
    /// One value per function of the query, in declaration order.
    /// `None` entries mean the window was empty for that function.
    pub values: Vec<Option<f64>>,
}

impl QueryResult {
    /// The canonical emission order `(query, window end, key, window
    /// start)`. Every result drain in the workspace leaves in this order,
    /// so runs are byte-reproducible however assemblers interleave
    /// per-query emissions on window-end ties. Within one result stream
    /// the key is unique: a query has one result per window and key.
    #[inline]
    pub fn emit_order(
        &self,
    ) -> (
        QueryId,
        crate::time::Timestamp,
        crate::event::Key,
        crate::time::Timestamp,
    ) {
        (self.query, self.window_end, self.key, self.window_start)
    }
}

/// Sorts results into the canonical `(query, window end, key, window
/// start)` emission order (see [`QueryResult::emit_order`]). Every drain
/// and every cluster report already leaves in that order ([`ResultRuns`]);
/// this is for results gathered by hand, and for checking that order. The
/// sort is stable, and `emit_order` keys are unique within a result
/// stream, so the order is the one an unstable sort gives.
pub fn sort_results(results: &mut [QueryResult]) {
    results.sort_by_key(QueryResult::emit_order);
}

/// The results emitted since the last drain, one run per query in
/// emission order, so that a drain concatenates runs instead of sorting
/// everything. The engines file each assembly step's output here, and a
/// cluster root files each message's results ([`Extend`]).
///
/// A run is in canonical order by construction wherever a query's windows
/// end in time order, because each window's keys leave ascending
/// ([`crate::engine::merge::finalize_sorted`]). A run that is not — an id
/// reused after a draining removal interleaves two queries' windows, and
/// a centralized baseline emits in an order of its own — is stable-sorted
/// at the drain, so every drain is canonical either way.
///
/// Retained state: a run holds at most the results since the last drain.
/// Its capacity is kept for the next interval while its query is
/// installed; the first drain after a query's removal drops its run, and
/// so does every later drain that finds one (results a draining removal
/// still emits, and every run of a query never installed).
///
/// ```
/// use desis_core::query::{sort_results, QueryResult, ResultRuns};
///
/// let result = |query, window_end, key| QueryResult {
///     query,
///     key,
///     window_start: window_end - 10,
///     window_end,
///     values: vec![Some(1.0)],
/// };
/// let mut runs = ResultRuns::default();
/// runs.extend([result(2, 10, 0), result(1, 10, 0)]);
/// runs.extend([result(2, 20, 0), result(1, 20, 1), result(1, 20, 0)]);
/// let drained = runs.drain();
/// let mut sorted = drained.clone();
/// sort_results(&mut sorted);
/// assert_eq!(drained, sorted);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ResultRuns {
    /// Sorted by query id.
    runs: Vec<Run>,
    /// What the current assembly step emits, on its way into the runs.
    emitted: Vec<QueryResult>,
}

#[derive(Debug, Clone)]
struct Run {
    query: QueryId,
    results: Vec<QueryResult>,
    /// The query is not installed: the next drain drops the run.
    retired: bool,
}

impl Run {
    fn new(query: QueryId, retired: bool) -> Self {
        Self {
            query,
            results: Vec::new(),
            retired,
        }
    }
}

fn find(runs: &[Run], query: QueryId) -> Result<usize, usize> {
    runs.binary_search_by_key(&query, |run| run.query)
}

/// Moves `results` into the runs of their queries, one lookup per
/// contiguous block of a query. A result of a query that is not
/// installed opens a run the next drain drops.
fn file(runs: &mut Vec<Run>, results: impl Iterator<Item = QueryResult>) {
    let mut rest = results.peekable();
    while let Some(first) = rest.next() {
        let query = first.query;
        let at = find(runs, query).unwrap_or_else(|at| {
            runs.insert(at, Run::new(query, true));
            at
        });
        let results = &mut runs[at].results;
        results.push(first);
        results.extend(std::iter::from_fn(|| rest.next_if(|r| r.query == query)));
    }
}

impl ResultRuns {
    /// Opens a run for each of `queries`, installed from now on.
    pub(crate) fn install(&mut self, queries: impl IntoIterator<Item = QueryId>) {
        let open = queries.into_iter().map(|query| Run::new(query, false));
        self.runs.extend(open);
        // Stable, so a run already held comes first among its equals and
        // is the one kept, installed again.
        self.runs.sort_by_key(|run| run.query);
        self.runs.dedup_by(|new, held| {
            let same = new.query == held.query;
            held.retired &= !same;
            same
        });
    }

    /// Marks `query` removed: the next drain drops its run.
    pub(crate) fn retire(&mut self, query: QueryId) {
        if let Ok(at) = find(&self.runs, query) {
            self.runs[at].retired = true;
        }
    }

    /// Whether `query` is installed and not removed.
    pub(crate) fn installed(&self, query: QueryId) -> bool {
        find(&self.runs, query).is_ok_and(|at| !self.runs[at].retired)
    }

    /// The buffer an assembly step emits into, for
    /// [`ResultRuns::absorb`] to empty.
    pub(crate) fn emitted(&mut self) -> &mut Vec<QueryResult> {
        &mut self.emitted
    }

    /// Moves what the assembly step emitted into the runs of their
    /// queries. A window's results are contiguous, so this looks up one
    /// run per window, not per result.
    pub(crate) fn absorb(&mut self) {
        file(&mut self.runs, self.emitted.drain(..));
    }

    /// Takes every run, concatenated in query-id order: the canonical
    /// order, sorting only a run that is not in it already.
    pub fn drain(&mut self) -> Vec<QueryResult> {
        let len = self.runs.iter().map(|run| run.results.len()).sum();
        let mut out = Vec::with_capacity(len);
        for run in &mut self.runs {
            let results = &mut run.results;
            if !results.is_sorted_by_key(QueryResult::emit_order) {
                results.sort_by_key(QueryResult::emit_order);
            }
            out.append(results);
        }
        self.runs.retain(|run| !run.retired);
        out
    }

    /// Runs currently held, for the state-bound tests.
    #[cfg(test)]
    pub(crate) fn runs(&self) -> usize {
        self.runs.len()
    }
}

/// Files results into the runs of their queries, one lookup per
/// contiguous block of a query: how a cluster root keeps what it drains
/// after each message.
impl Extend<QueryResult> for ResultRuns {
    fn extend<I: IntoIterator<Item = QueryResult>>(&mut self, results: I) {
        file(&mut self.runs, results.into_iter());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        let w = WindowSpec::tumbling_time(1000).unwrap();
        assert!(Query::new(1, w, AggFunction::Sum).validate().is_ok());
        assert!(Query::with_functions(1, w, vec![]).validate().is_err());
        assert!(Query::new(1, w, AggFunction::Quantile(2.0))
            .validate()
            .is_err());
    }

    #[test]
    fn operator_set_union() {
        let w = WindowSpec::tumbling_time(1000).unwrap();
        let q = Query::with_functions(1, w, vec![AggFunction::Average, AggFunction::Max]);
        assert_eq!(q.operator_set().len(), 3); // sum, count, dsort
    }

    #[test]
    fn decomposability() {
        let w = WindowSpec::tumbling_time(1000).unwrap();
        assert!(Query::new(1, w, AggFunction::Average).is_decomposable());
        assert!(!Query::new(1, w, AggFunction::Median).is_decomposable());
        assert!(
            !Query::with_functions(1, w, vec![AggFunction::Sum, AggFunction::Quantile(0.9)])
                .is_decomposable()
        );
    }

    fn result(query: QueryId, window_end: u64, key: u32) -> QueryResult {
        QueryResult {
            query,
            key,
            window_start: window_end.saturating_sub(10),
            window_end,
            values: vec![Some(f64::from(key))],
        }
    }

    /// Blocks of several queries, interleaved, one of them out of end
    /// order: the drain is the canonical sort of everything absorbed.
    #[test]
    fn result_runs_drain_in_canonical_order() {
        let mut runs = ResultRuns::default();
        runs.install([1, 2, 3]);
        let mut all = Vec::new();
        for block in [
            vec![result(3, 10, 0), result(3, 10, 4)],
            vec![result(1, 20, 1)],
            vec![result(2, 30, 0), result(2, 30, 2), result(1, 30, 0)],
            // A per-key end released late: query 3's run needs its sort.
            vec![result(3, 10, 2), result(2, 40, 1)],
        ] {
            all.extend(block.iter().cloned());
            runs.emitted().extend(block);
            runs.absorb();
        }
        sort_results(&mut all);
        assert_eq!(runs.drain(), all);
        assert!(runs.drain().is_empty());
        assert_eq!(runs.runs(), 3, "installed queries keep their runs");
    }

    /// A cluster root's filing: each query's results arrive split over
    /// several messages, interleaved with other queries' and never
    /// installed. The drain is the canonical sort of everything filed,
    /// and takes every run with it.
    #[test]
    fn result_runs_file_a_query_split_over_several_extends() {
        let mut runs = ResultRuns::default();
        let mut all = Vec::new();
        for message in [
            vec![result(2, 10, 0), result(2, 10, 3), result(7, 10, 1)],
            vec![result(2, 10, 5), result(1, 20, 0)],
            vec![result(7, 20, 0), result(2, 20, 1), result(1, 30, 2)],
            vec![],
            vec![result(1, 30, 4), result(7, 20, 2), result(2, 30, 0)],
        ] {
            all.extend(message.iter().cloned());
            runs.extend(message);
        }
        assert_eq!(runs.runs(), 3);
        sort_results(&mut all);
        let drained = runs.drain();
        assert_eq!(drained, all);
        assert_eq!(runs.runs(), 0, "runs of queries never installed go");
        assert!(runs.drain().is_empty());
    }

    /// A removed query's run goes with the next drain, and so does a run
    /// its draining windows open afterwards.
    #[test]
    fn result_runs_drop_the_runs_of_removed_queries() {
        let mut runs = ResultRuns::default();
        runs.install([1, 2]);
        runs.emitted().extend([result(1, 10, 0), result(2, 10, 0)]);
        runs.absorb();
        runs.retire(2);
        assert!(runs.installed(1) && !runs.installed(2));
        assert_eq!(runs.drain().len(), 2);
        assert_eq!(runs.runs(), 1);
        runs.emitted().push(result(2, 20, 0));
        runs.absorb();
        assert_eq!(runs.drain(), vec![result(2, 20, 0)]);
        assert_eq!(runs.runs(), 1);
        runs.install([2]);
        assert!(runs.installed(2));
    }

    #[test]
    fn filtered_builder() {
        let w = WindowSpec::tumbling_time(1000).unwrap();
        let q = Query::new(1, w, AggFunction::Sum).filtered(Predicate::KeyEquals(5));
        assert_eq!(q.predicate, Predicate::KeyEquals(5));
    }
}
