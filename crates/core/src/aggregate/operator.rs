//! Aggregate operators — the most basic units an aggregation function is
//! broken down into (paper Section 4.2.1).
//!
//! Instead of executing one aggregation function per window, the Desis
//! aggregation engine executes each distinct *operator* once per slice and
//! shares its intermediate result between every function (and thus every
//! window) that needs it. [`OperatorSet`] is a 6-bit set over the operator
//! kinds; [`OperatorState`] is the incremental per-slice state of one
//! operator.

use std::ops::{BitOr, BitOrAssign};

/// The kinds of aggregate operators (Section 4.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum OperatorKind {
    /// Running sum.
    Sum = 0,
    /// Running event count.
    Count = 1,
    /// Running product.
    Mult = 2,
    /// Incremental sort that drops computed events, keeping only the
    /// extremes. Shared between `max` and `min`.
    DecomposableSort = 3,
    /// Keeps all events and sorts when the slice is sealed. Shared between
    /// `max`, `min`, `median`, and `quantile`.
    NonDecomposableSort = 4,
    /// Running sum of squares. Together with `Sum` and `Count` it backs
    /// variance and standard deviation — an example of the paper's
    /// "users can define new operators to break down complex functions"
    /// (Section 4.2.1).
    SumSquares = 5,
}

impl OperatorKind {
    /// All operator kinds, in bit order.
    pub const ALL: [OperatorKind; 6] = [
        OperatorKind::Sum,
        OperatorKind::Count,
        OperatorKind::Mult,
        OperatorKind::DecomposableSort,
        OperatorKind::NonDecomposableSort,
        OperatorKind::SumSquares,
    ];

    #[inline]
    fn bit(self) -> u8 {
        1 << self as u8
    }
}

/// A set of operator kinds, stored as a 6-bit bitset.
///
/// Query-groups compute the union of the operator sets of all member
/// functions; each operator in the union is executed exactly once per
/// event per selection, regardless of how many queries need it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct OperatorSet(u8);

impl OperatorSet {
    /// The empty set.
    pub const EMPTY: OperatorSet = OperatorSet(0);

    /// A set with a single operator.
    #[inline]
    pub fn single(kind: OperatorKind) -> Self {
        OperatorSet(kind.bit())
    }

    /// Returns this set with `kind` added.
    #[inline]
    pub fn with(self, kind: OperatorKind) -> Self {
        OperatorSet(self.0 | kind.bit())
    }

    /// Whether `kind` is in the set.
    #[inline]
    pub fn contains(self, kind: OperatorKind) -> bool {
        self.0 & kind.bit() != 0
    }

    /// Number of operators in the set.
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates over the operators in the set, in bit order.
    pub fn iter(self) -> impl Iterator<Item = OperatorKind> {
        OperatorKind::ALL
            .into_iter()
            .filter(move |k| self.contains(*k))
    }

    /// Applies the *sort subsumption* rule (Section 4.2.1 / Figure 9g):
    /// the non-decomposable sort keeps every event, so when a group needs
    /// it anyway, `max`/`min` read from it for free and the decomposable
    /// sort is dropped from the set.
    #[inline]
    pub fn subsume_sorts(self) -> Self {
        if self.contains(OperatorKind::NonDecomposableSort)
            && self.contains(OperatorKind::DecomposableSort)
        {
            OperatorSet(self.0 & !OperatorKind::DecomposableSort.bit())
        } else {
            self
        }
    }
}

impl BitOr for OperatorSet {
    type Output = OperatorSet;
    #[inline]
    fn bitor(self, rhs: OperatorSet) -> OperatorSet {
        OperatorSet(self.0 | rhs.0)
    }
}

impl BitOrAssign for OperatorSet {
    #[inline]
    fn bitor_assign(&mut self, rhs: OperatorSet) {
        self.0 |= rhs.0;
    }
}

impl FromIterator<OperatorKind> for OperatorSet {
    fn from_iter<I: IntoIterator<Item = OperatorKind>>(iter: I) -> Self {
        iter.into_iter()
            .fold(OperatorSet::EMPTY, |set, kind| set.with(kind))
    }
}

/// Incremental state of one operator within one slice.
///
/// `update` is the per-event incremental aggregation; `merge` combines
/// partial results from different slices or different nodes (decentralized
/// aggregation, Section 5.1); `seal` finishes a slice (sorting the kept
/// events of a non-decomposable sort exactly once).
#[derive(Debug, Clone, PartialEq)]
pub enum OperatorState {
    /// Running sum.
    Sum(f64),
    /// Running count.
    Count(u64),
    /// Running product.
    Mult(f64),
    /// Extremes of the values seen so far. `None` until the first value.
    DSort(Option<(f64, f64)>),
    /// All values seen. Sorted ascending once sealed.
    NSort {
        /// The kept values.
        values: Vec<f64>,
        /// Whether `values` is currently sorted.
        sorted: bool,
    },
    /// Running sum of squared values.
    SumSq(f64),
}

impl OperatorState {
    /// Fresh state for an operator kind.
    pub fn new(kind: OperatorKind) -> Self {
        match kind {
            OperatorKind::Sum => OperatorState::Sum(0.0),
            OperatorKind::Count => OperatorState::Count(0),
            OperatorKind::Mult => OperatorState::Mult(1.0),
            OperatorKind::DecomposableSort => OperatorState::DSort(None),
            OperatorKind::NonDecomposableSort => OperatorState::NSort {
                values: Vec::new(),
                sorted: true,
            },
            OperatorKind::SumSquares => OperatorState::SumSq(0.0),
        }
    }

    /// The kind of this state.
    pub fn kind(&self) -> OperatorKind {
        match self {
            OperatorState::Sum(_) => OperatorKind::Sum,
            OperatorState::Count(_) => OperatorKind::Count,
            OperatorState::Mult(_) => OperatorKind::Mult,
            OperatorState::DSort(_) => OperatorKind::DecomposableSort,
            OperatorState::NSort { .. } => OperatorKind::NonDecomposableSort,
            OperatorState::SumSq(_) => OperatorKind::SumSquares,
        }
    }

    /// Incremental per-event update.
    #[inline]
    pub fn update(&mut self, value: f64) {
        match self {
            OperatorState::Sum(s) => *s += value,
            OperatorState::Count(c) => *c += 1,
            OperatorState::Mult(m) => *m *= value,
            OperatorState::DSort(extremes) => match extremes {
                Some((min, max)) => {
                    if value < *min {
                        *min = value;
                    }
                    if value > *max {
                        *max = value;
                    }
                }
                None => *extremes = Some((value, value)),
            },
            OperatorState::NSort { values, sorted } => {
                // The order `seal` sorts by: `<` would call `[0.0, -0.0]`
                // or a run starting with a NaN sorted.
                if *sorted
                    && values
                        .last()
                        .is_some_and(|last| value.total_cmp(last).is_lt())
                {
                    *sorted = false;
                }
                values.push(value);
            }
            OperatorState::SumSq(s) => *s += value * value,
        }
    }

    /// Finishes the slice-local work of this operator. For the
    /// non-decomposable sort this performs the one final sort (Section
    /// 4.2.1); all other operators are already final.
    pub fn seal(&mut self) {
        if let OperatorState::NSort { values, sorted } = self {
            if !*sorted {
                values.sort_unstable_by(|a, b| a.total_cmp(b));
                *sorted = true;
            }
        }
    }

    /// Merges another partial result of the same kind into this one.
    ///
    /// Merging two sealed `NSort` states produces a sealed (sorted) state
    /// via a linear merge of the two sorted runs, so intermediate and root
    /// nodes always work on sorted data (Section 5.2). Runs are ordered by
    /// `f64::total_cmp` — the one relation `update`, `seal` and `merge`
    /// share — so the merged run is the run `seal` would produce from the
    /// concatenation, bit for bit, whichever side a value came from:
    /// merging commutes and associates on `NaN` and `±0.0` too. The merge
    /// runs in place from the back of `self` and stops once `other` is
    /// used up, so folding a short run into a long one allocates nothing
    /// beyond `self`'s growth and leaves the long run's head untouched.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the kinds differ; in release builds
    /// mismatched merges are a logic error with unspecified results.
    pub fn merge(&mut self, other: &OperatorState) {
        debug_assert_eq!(self.kind(), other.kind(), "operator kind mismatch");
        match (self, other) {
            (OperatorState::Sum(a), OperatorState::Sum(b)) => *a += b,
            (OperatorState::Count(a), OperatorState::Count(b)) => *a += b,
            (OperatorState::Mult(a), OperatorState::Mult(b)) => *a *= b,
            (OperatorState::DSort(a), OperatorState::DSort(b)) => match (&a, b) {
                (_, None) => {}
                (None, Some(x)) => *a = Some(*x),
                (Some((amin, amax)), Some((bmin, bmax))) => {
                    *a = Some((amin.min(*bmin), amax.max(*bmax)));
                }
            },
            (
                OperatorState::NSort {
                    values: a,
                    sorted: sa,
                },
                OperatorState::NSort {
                    values: b,
                    sorted: sb,
                },
            ) => {
                if *sa && *sb {
                    merge_sorted_in_place(a, b);
                } else {
                    a.extend_from_slice(b);
                    *sa = false;
                }
            }
            (OperatorState::SumSq(a), OperatorState::SumSq(b)) => *a += b,
            _ => unreachable!("operator kind mismatch in merge"),
        }
    }

    /// Number of values held by this state (1 for scalar operators).
    /// Used for network-size accounting of partial results.
    pub fn payload_len(&self) -> usize {
        match self {
            OperatorState::NSort { values, .. } => values.len(),
            OperatorState::DSort(_) => 2,
            _ => 1,
        }
    }
}

/// Merges the sorted run `b` into the sorted run `a` (both ascending by
/// `f64::total_cmp`), filling `a` from the back: the largest value left
/// goes to the last free slot, until `b` is used up — what is left of `a`
/// is already in place.
fn merge_sorted_in_place(a: &mut Vec<f64>, b: &[f64]) {
    let mut i = a.len();
    a.resize(i + b.len(), 0.0);
    for (j, &from_b) in b.iter().enumerate().rev() {
        // `a[i + j]` is the last free slot: `i` of `a`'s and `j + 1` of
        // `b`'s values are still to be placed.
        while i > 0 && a[i - 1].total_cmp(&from_b).is_gt() {
            a[i + j] = a[i - 1];
            i -= 1;
        }
        a[i + j] = from_b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn set_union_and_iteration() {
        let a = OperatorSet::single(OperatorKind::Sum).with(OperatorKind::Count);
        let b = OperatorSet::single(OperatorKind::Sum);
        let u = a | b;
        assert_eq!(u.len(), 2);
        let kinds: Vec<_> = u.iter().collect();
        assert_eq!(kinds, vec![OperatorKind::Sum, OperatorKind::Count]);
        assert!(!u.is_empty());
        assert!(OperatorSet::EMPTY.is_empty());
    }

    #[test]
    fn set_from_iterator() {
        let s: OperatorSet = [OperatorKind::Mult, OperatorKind::Mult, OperatorKind::Count]
            .into_iter()
            .collect();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn sort_subsumption() {
        let both = OperatorSet::single(OperatorKind::DecomposableSort)
            .with(OperatorKind::NonDecomposableSort);
        let subsumed = both.subsume_sorts();
        assert_eq!(subsumed.len(), 1);
        assert!(subsumed.contains(OperatorKind::NonDecomposableSort));
        // Without NSort, DSort is kept.
        let only_d = OperatorSet::single(OperatorKind::DecomposableSort);
        assert_eq!(only_d.subsume_sorts(), only_d);
    }

    #[test]
    fn sum_update_and_merge() {
        let mut a = OperatorState::new(OperatorKind::Sum);
        a.update(1.5);
        a.update(2.5);
        let mut b = OperatorState::new(OperatorKind::Sum);
        b.update(4.0);
        a.merge(&b);
        assert_eq!(a, OperatorState::Sum(8.0));
    }

    #[test]
    fn count_update_and_merge() {
        let mut a = OperatorState::new(OperatorKind::Count);
        a.update(123.0);
        a.update(-1.0);
        let mut b = OperatorState::new(OperatorKind::Count);
        b.update(0.0);
        a.merge(&b);
        assert_eq!(a, OperatorState::Count(3));
    }

    #[test]
    fn mult_identity_is_one() {
        let mut a = OperatorState::new(OperatorKind::Mult);
        let empty = OperatorState::new(OperatorKind::Mult);
        a.update(3.0);
        a.update(4.0);
        a.merge(&empty);
        assert_eq!(a, OperatorState::Mult(12.0));
    }

    #[test]
    fn dsort_tracks_extremes_and_merges() {
        let mut a = OperatorState::new(OperatorKind::DecomposableSort);
        a.update(5.0);
        a.update(1.0);
        a.update(3.0);
        assert_eq!(a, OperatorState::DSort(Some((1.0, 5.0))));

        let mut b = OperatorState::new(OperatorKind::DecomposableSort);
        b.update(7.0);
        a.merge(&b);
        assert_eq!(a, OperatorState::DSort(Some((1.0, 7.0))));

        let empty = OperatorState::new(OperatorKind::DecomposableSort);
        a.merge(&empty);
        assert_eq!(a, OperatorState::DSort(Some((1.0, 7.0))));

        let mut c = OperatorState::new(OperatorKind::DecomposableSort);
        c.merge(&a);
        assert_eq!(c, OperatorState::DSort(Some((1.0, 7.0))));
    }

    #[test]
    fn nsort_seals_sorted() {
        let mut a = OperatorState::new(OperatorKind::NonDecomposableSort);
        for v in [3.0, 1.0, 2.0] {
            a.update(v);
        }
        a.seal();
        match &a {
            OperatorState::NSort { values, sorted } => {
                assert!(*sorted);
                assert_eq!(values, &vec![1.0, 2.0, 3.0]);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn nsort_already_sorted_input_avoids_resort_flag() {
        let mut a = OperatorState::new(OperatorKind::NonDecomposableSort);
        for v in [1.0, 2.0, 3.0] {
            a.update(v);
        }
        match &a {
            OperatorState::NSort { sorted, .. } => assert!(*sorted),
            _ => unreachable!(),
        }
    }

    #[test]
    fn nsort_merge_of_sealed_runs_is_sorted() {
        let mut a = OperatorState::new(OperatorKind::NonDecomposableSort);
        for v in [5.0, 1.0, 3.0] {
            a.update(v);
        }
        a.seal();
        let mut b = OperatorState::new(OperatorKind::NonDecomposableSort);
        for v in [4.0, 2.0] {
            b.update(v);
        }
        b.seal();
        a.merge(&b);
        match &a {
            OperatorState::NSort { values, sorted } => {
                assert!(*sorted);
                assert_eq!(values, &vec![1.0, 2.0, 3.0, 4.0, 5.0]);
            }
            _ => unreachable!(),
        }
    }

    /// A sealed non-decomposable sort over `values`.
    fn sealed(values: &[f64]) -> OperatorState {
        let mut state = OperatorState::new(OperatorKind::NonDecomposableSort);
        for v in values {
            state.update(*v);
        }
        state.seal();
        state
    }

    /// The kept values' bit patterns: `==` on `f64` calls `0.0` and
    /// `-0.0` equal and no `NaN` equal to itself.
    fn bits(state: &OperatorState) -> Vec<u64> {
        match state {
            OperatorState::NSort { values, sorted } => {
                assert!(*sorted);
                values.iter().map(|v| v.to_bits()).collect()
            }
            _ => unreachable!(),
        }
    }

    fn merged(parts: &[&OperatorState]) -> OperatorState {
        let mut dst = parts[0].clone();
        for part in &parts[1..] {
            dst.merge(part);
        }
        dst
    }

    /// `update`, `seal` and `merge` order values by one relation, so a
    /// run's bits do not say which side of a merge a value came from.
    /// With `<` / `<=` beside `total_cmp`, `[5.0]` merged with `[NaN]`
    /// was `[NaN, 5.0]` one way round and `[5.0, NaN]` the other.
    #[test]
    fn nsort_merge_commutes_and_associates_bit_for_bit() {
        let nan = f64::NAN;
        let runs: [&[f64]; 8] = [
            &[5.0],
            &[nan],
            &[0.0],
            &[-0.0],
            &[0.0, -0.0, 0.0],
            &[-nan, f64::INFINITY, 1.0, 1.0, f64::NEG_INFINITY],
            &[1.0, nan, -0.0, 1.0, -1.0],
            &[],
        ];
        for a in runs {
            for b in runs {
                let concat = sealed(&[a, b].concat());
                let (sa, sb) = (sealed(a), sealed(b));
                assert_eq!(bits(&merged(&[&sa, &sb])), bits(&concat), "{a:?} {b:?}");
                assert_eq!(bits(&merged(&[&sb, &sa])), bits(&concat), "{b:?} {a:?}");
                for c in runs {
                    let sc = sealed(c);
                    let want = bits(&sealed(&[a, b, c].concat()));
                    let bc = merged(&[&sb, &sc]);
                    assert_eq!(bits(&merged(&[&sa, &sb, &sc])), want, "{a:?} {b:?} {c:?}");
                    assert_eq!(bits(&merged(&[&sa, &bc])), want, "{a:?} ({b:?} {c:?})");
                    assert_eq!(bits(&merged(&[&sc, &sa, &sb])), want, "{c:?} {a:?} {b:?}");
                }
            }
        }
        // The finalized extremes are the first and last of the run.
        let run = bits(&merged(&[&sealed(&[5.0]), &sealed(&[nan])]));
        assert_eq!(run, [5.0f64.to_bits(), nan.to_bits()]);
        let zeros = bits(&merged(&[&sealed(&[0.0]), &sealed(&[-0.0])]));
        assert_eq!(zeros, [(-0.0f64).to_bits(), 0.0f64.to_bits()]);
    }

    /// A run that `<` calls sorted but `total_cmp` does not is still
    /// sorted when sealed.
    #[test]
    fn nsort_update_tracks_the_order_seal_sorts_by() {
        assert_eq!(
            bits(&sealed(&[0.0, -0.0])),
            [(-0.0f64).to_bits(), 0.0f64.to_bits()]
        );
        assert_eq!(
            bits(&sealed(&[1.0, -f64::NAN])),
            [(-f64::NAN).to_bits(), 1.0f64.to_bits()]
        );
    }

    /// The merge before it ran in place: a fresh vector of both runs.
    fn merge_allocating(a: &[f64], b: &[f64]) -> Vec<f64> {
        let mut merged = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            if a[i].total_cmp(&b[j]).is_le() {
                merged.push(a[i]);
                i += 1;
            } else {
                merged.push(b[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend_from_slice(&b[j..]);
        merged
    }

    #[test]
    fn in_place_merge_equals_the_allocating_merge() {
        let mut rng = SmallRng::seed_from_u64(0xD515_1800);
        let specials = [f64::NAN, -f64::NAN, 0.0, -0.0, f64::INFINITY];
        for case in 0..2_000 {
            let run = |rng: &mut SmallRng| {
                let len = [0, 0, 1, 2, 7, 40][rng.gen_range(0usize..6)];
                let mut values: Vec<f64> = (0..rng.gen_range(0..=len))
                    .map(|_| match rng.gen_range(0u32..8) {
                        0 => specials[rng.gen_range(0usize..specials.len())],
                        1 => f64::from(rng.gen_range(-3i32..3)),
                        _ => rng.gen_range(-9.9f64..9.9),
                    })
                    .collect();
                values.sort_unstable_by(f64::total_cmp);
                values
            };
            let (a, b) = (run(&mut rng), run(&mut rng));
            let want: Vec<u64> = merge_allocating(&a, &b)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let mut got = a.clone();
            merge_sorted_in_place(&mut got, &b);
            let got: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "case {case}: {a:?} with {b:?}");
        }
    }

    #[test]
    fn nsort_merge_unsealed_defers_sort() {
        let mut a = OperatorState::new(OperatorKind::NonDecomposableSort);
        a.update(5.0);
        a.update(1.0); // now unsorted
        let mut b = OperatorState::new(OperatorKind::NonDecomposableSort);
        b.update(2.0);
        a.merge(&b);
        a.seal();
        match &a {
            OperatorState::NSort { values, .. } => {
                assert_eq!(values, &vec![1.0, 2.0, 5.0]);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn payload_lengths() {
        let mut n = OperatorState::new(OperatorKind::NonDecomposableSort);
        n.update(1.0);
        n.update(2.0);
        assert_eq!(n.payload_len(), 2);
        assert_eq!(OperatorState::new(OperatorKind::Sum).payload_len(), 1);
        assert_eq!(
            OperatorState::new(OperatorKind::DecomposableSort).payload_len(),
            2
        );
    }
}
