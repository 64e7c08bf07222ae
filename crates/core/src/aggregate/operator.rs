//! Aggregate operators — the most basic units an aggregation function is
//! broken down into (paper Section 4.2.1).
//!
//! Instead of executing one aggregation function per window, the Desis
//! aggregation engine executes each distinct *operator* once per slice and
//! shares its intermediate result between every function (and thus every
//! window) that needs it. [`OperatorSet`] is a 6-bit set over the operator
//! kinds; the per-slice states of a set's operators, and their update,
//! seal and merge, live in [`crate::aggregate::OperatorBundle`].

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

    /// The operators of `self` that `other` lacks.
    #[inline]
    pub fn minus(self, other: OperatorSet) -> Self {
        OperatorSet(self.0 & !other.0)
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

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(a.minus(b), OperatorSet::single(OperatorKind::Count));
        assert!(b.minus(a).is_empty());
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
}
