//! Bundles of operator states — the per-(selection, key) intermediate
//! result of one slice.
//!
//! A bundle holds at most one state per [`OperatorKind`]; every aggregation
//! function of the query-group is *finalized* from the bundle, so an
//! operator needed by five functions is still updated once per event. The
//! per-kind arithmetic — update, seal and merge — exists here and nowhere
//! else.

use crate::aggregate::function::AggFunction;
use crate::aggregate::operator::{OperatorKind, OperatorSet};

use OperatorKind::{
    Count, DecomposableSort as DSort, Mult, NonDecomposableSort as NSort, Sum, SumSquares,
};

/// Per-slice intermediate results: the state of every operator kind the
/// query-group requires, inline in one record.
///
/// Layout: the [`OperatorSet`] of the kinds present, one field per scalar
/// state (count, sum, product, sum of squares, and the decomposable
/// sort's extremes with a `seen` flag) and one `Vec<f64>` with a `sorted`
/// flag for the non-decomposable sort — 80 bytes on a 64-bit target,
/// whatever the set. Every method tests the set's bits. The fields of a
/// kind not in the set keep their fresh values, no method reads them, and
/// equality ignores them. The state fields are public so that the wire
/// codec writes and reads them directly.
#[derive(Debug, Clone)]
pub struct OperatorBundle {
    set: OperatorSet,
    /// Decomposable sort: whether `min` and `max` hold a value yet.
    pub seen: bool,
    /// Non-decomposable sort: whether `values` is sorted, ascending by
    /// `f64::total_cmp`.
    pub sorted: bool,
    /// Running event count.
    pub count: u64,
    /// Running sum.
    pub sum: f64,
    /// Running product.
    pub product: f64,
    /// Running sum of squared values.
    pub sum_sq: f64,
    /// Decomposable sort: the smallest value seen (when `seen`).
    pub min: f64,
    /// Decomposable sort: the largest value seen (when `seen`).
    pub max: f64,
    /// Non-decomposable sort: every value seen, sorted once sealed.
    pub values: Vec<f64>,
}

impl OperatorBundle {
    /// Creates a bundle with fresh states for every operator in `set`.
    pub fn new(set: OperatorSet) -> Self {
        Self {
            set,
            seen: false,
            sorted: true,
            count: 0,
            sum: 0.0,
            product: 1.0,
            sum_sq: 0.0,
            min: 0.0,
            max: 0.0,
            values: Vec::new(),
        }
    }

    /// The set of operators present in this bundle.
    #[inline]
    pub fn operator_set(&self) -> OperatorSet {
        self.set
    }

    /// Incrementally folds one event value into every operator.
    /// Returns the number of operator executions performed (the paper's
    /// "number of calculations" metric, Figure 9).
    #[inline]
    pub fn update(&mut self, value: f64) -> u64 {
        let set = self.set;
        if set.contains(Sum) {
            self.sum += value;
        }
        if set.contains(Count) {
            self.count += 1;
        }
        if set.contains(Mult) {
            self.product *= value;
        }
        if set.contains(DSort) {
            if !self.seen {
                (self.seen, self.min, self.max) = (true, value, value);
            }
            if value < self.min {
                self.min = value;
            }
            if value > self.max {
                self.max = value;
            }
        }
        if set.contains(NSort) {
            // The order `seal` sorts by: `<` would call `[0.0, -0.0]` or
            // a run starting with a NaN sorted.
            if self.sorted
                && self
                    .values
                    .last()
                    .is_some_and(|last| value.total_cmp(last).is_lt())
            {
                self.sorted = false;
            }
            self.values.push(value);
        }
        if set.contains(SumSquares) {
            self.sum_sq += value * value;
        }
        set.len() as u64
    }

    /// Seals the bundle when its slice terminates: the one final sort of
    /// the non-decomposable sort (Section 4.2.1); every other operator is
    /// already final.
    pub fn seal(&mut self) {
        if self.set.contains(NSort) && !self.sorted {
            self.values.sort_unstable_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Merges another bundle (a partial result of a different slice or of
    /// a child node, Section 5.1) into this one. A kind only `other`
    /// holds is adopted as it is; a kind only `self` holds is left as it
    /// is: window assembly merges bundles that were created from the same
    /// query-group and therefore agree.
    ///
    /// Merging two sealed non-decomposable sorts gives a sealed one via a
    /// linear merge of the two sorted runs, so intermediate and root
    /// nodes always work on sorted data (Section 5.2). Runs are ordered
    /// by `f64::total_cmp` — the one relation `update`, `seal` and
    /// `merge` share — so the merged run is the run `seal` would produce
    /// from the concatenation, bit for bit, whichever side a value came
    /// from: merging commutes and associates on `NaN` and `±0.0` too.
    /// The merge runs in place from the back of `self` and stops once
    /// `other` is used up, so folding a short run into a long one
    /// allocates nothing beyond `self`'s growth and leaves the long run's
    /// head untouched.
    pub fn merge(&mut self, other: &OperatorBundle) {
        let adopted = other.set.minus(self.set);
        if !adopted.is_empty() {
            self.adopt(other, adopted);
        }
        let both = other.set.minus(adopted);
        if both.contains(Sum) {
            self.sum += other.sum;
        }
        if both.contains(Count) {
            self.count += other.count;
        }
        if both.contains(Mult) {
            self.product *= other.product;
        }
        if both.contains(DSort) && other.seen {
            if self.seen {
                self.min = self.min.min(other.min);
                self.max = self.max.max(other.max);
            } else {
                (self.seen, self.min, self.max) = (true, other.min, other.max);
            }
        }
        if both.contains(NSort) {
            if self.sorted && other.sorted {
                merge_sorted_in_place(&mut self.values, &other.values);
            } else {
                self.values.extend_from_slice(&other.values);
                self.sorted = false;
            }
        }
        if both.contains(SumSquares) {
            self.sum_sq += other.sum_sq;
        }
    }

    /// Copies `other`'s states of `kinds` into this bundle, which lacks
    /// them.
    #[cold]
    fn adopt(&mut self, other: &OperatorBundle, kinds: OperatorSet) {
        for kind in kinds.iter() {
            match kind {
                Sum => self.sum = other.sum,
                Count => self.count = other.count,
                Mult => self.product = other.product,
                DSort => (self.seen, self.min, self.max) = (other.seen, other.min, other.max),
                NSort => {
                    self.values.clone_from(&other.values);
                    self.sorted = other.sorted;
                }
                SumSquares => self.sum_sq = other.sum_sq,
            }
        }
        self.set |= kinds;
    }

    /// The total number of scalar values held (for network accounting):
    /// one per scalar operator, two for the extremes, and every kept
    /// value of the non-decomposable sort.
    pub fn payload_len(&self) -> usize {
        self.set
            .iter()
            .map(|kind| match kind {
                NSort => self.values.len(),
                DSort => 2,
                _ => 1,
            })
            .sum()
    }

    /// Number of events folded into this bundle, if a counting operator is
    /// present (`Count` or the non-decomposable sort).
    pub fn event_count(&self) -> Option<u64> {
        if self.set.contains(Count) {
            Some(self.count)
        } else if self.set.contains(NSort) {
            Some(self.values.len() as u64)
        } else {
            None
        }
    }

    /// Computes the final result of `func` from the bundle.
    ///
    /// Returns `None` when the bundle saw no events (empty windows produce
    /// no result, matching the paper's systems) or when a required operator
    /// is missing (a query-group construction bug).
    ///
    /// `min`/`max` prefer the decomposable sort but fall back to the
    /// non-decomposable sort when the group subsumed it (Figure 9g).
    pub fn finalize(&self, func: &AggFunction) -> Option<f64> {
        let has = |kind| self.set.contains(kind);
        let counted = has(Count) && self.count > 0;
        match func {
            AggFunction::Sum => (has(Sum) && self.nonempty()).then_some(self.sum),
            AggFunction::Count => has(Count).then_some(self.count as f64),
            AggFunction::Average => (has(Sum) && counted).then(|| self.sum / self.count as f64),
            AggFunction::Product => (has(Mult) && self.nonempty()).then_some(self.product),
            AggFunction::GeometricMean => {
                (has(Mult) && counted).then(|| self.product.powf(1.0 / self.count as f64))
            }
            AggFunction::Min => self.extremes().map(|(min, _)| min),
            AggFunction::Max => self.extremes().map(|(_, max)| max),
            AggFunction::Median => self.quantile_from_sorted(0.5),
            AggFunction::Quantile(q) => self.quantile_from_sorted(*q),
            AggFunction::Variance => self.variance(),
            AggFunction::StdDev => self.variance().map(f64::sqrt),
        }
    }

    fn variance(&self) -> Option<f64> {
        let set = self.set;
        if !(set.contains(SumSquares) && set.contains(Sum) && set.contains(Count))
            || self.count == 0
        {
            return None;
        }
        let c = self.count as f64;
        let mean = self.sum / c;
        // Clamp tiny negative rounding residue.
        Some((self.sum_sq / c - mean * mean).max(0.0))
    }

    fn nonempty(&self) -> bool {
        match self.event_count() {
            Some(c) => c > 0,
            // Without a counting operator we cannot distinguish an empty
            // slice; treat identity-valued sums conservatively as present.
            None => true,
        }
    }

    fn extremes(&self) -> Option<(f64, f64)> {
        if self.set.contains(DSort) {
            return self.seen.then_some((self.min, self.max));
        }
        // Subsumed by the non-decomposable sort (Figure 9g).
        if self.set.contains(NSort) {
            debug_assert!(self.sorted, "finalize called on unsealed bundle");
            return Some((*self.values.first()?, *self.values.last()?));
        }
        None
    }

    fn quantile_from_sorted(&self, q: f64) -> Option<f64> {
        if !self.set.contains(NSort) || self.values.is_empty() {
            return None;
        }
        debug_assert!(self.sorted, "finalize called on unsealed bundle");
        let values = &self.values;
        // Linear interpolation between closest ranks (type-7 quantile,
        // the default of R/NumPy).
        let pos = q * (values.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            Some(values[lo])
        } else {
            let frac = pos - lo as f64;
            Some(values[lo] * (1.0 - frac) + values[hi] * frac)
        }
    }
}

impl PartialEq for OperatorBundle {
    /// Equal when the same kinds are present with equal states; the
    /// fields of absent kinds do not count.
    fn eq(&self, other: &Self) -> bool {
        let lacks = |kind| !self.set.contains(kind);
        self.set == other.set
            && (lacks(Sum) || self.sum == other.sum)
            && (lacks(Count) || self.count == other.count)
            && (lacks(Mult) || self.product == other.product)
            && (lacks(DSort)
                || self.seen == other.seen
                    && (!self.seen || (self.min, self.max) == (other.min, other.max)))
            && (lacks(NSort) || self.values == other.values && self.sorted == other.sorted)
            && (lacks(SumSquares) || self.sum_sq == other.sum_sq)
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

    /// A fresh bundle holding only `kind`.
    fn single(kind: OperatorKind) -> OperatorBundle {
        OperatorBundle::new(OperatorSet::single(kind))
    }

    #[test]
    fn bundle_is_at_most_80_bytes() {
        assert!(std::mem::size_of::<OperatorBundle>() <= 80);
    }

    #[test]
    fn sum_update_and_merge() {
        let mut a = single(Sum);
        a.update(1.5);
        a.update(2.5);
        let mut b = single(Sum);
        b.update(4.0);
        a.merge(&b);
        assert_eq!(a.sum, 8.0);
    }

    #[test]
    fn count_update_and_merge() {
        let mut a = single(Count);
        a.update(123.0);
        a.update(-1.0);
        let mut b = single(Count);
        b.update(0.0);
        a.merge(&b);
        assert_eq!(a.count, 3);
    }

    #[test]
    fn mult_identity_is_one() {
        let mut a = single(Mult);
        let empty = single(Mult);
        a.update(3.0);
        a.update(4.0);
        a.merge(&empty);
        assert_eq!(a.product, 12.0);
    }

    /// The decomposable sort's state: `None` until the first value.
    fn extremes(b: &OperatorBundle) -> Option<(f64, f64)> {
        b.seen.then_some((b.min, b.max))
    }

    #[test]
    fn dsort_tracks_extremes_and_merges() {
        let mut a = single(DSort);
        a.update(5.0);
        a.update(1.0);
        a.update(3.0);
        assert_eq!(extremes(&a), Some((1.0, 5.0)));

        let mut b = single(DSort);
        b.update(7.0);
        a.merge(&b);
        assert_eq!(extremes(&a), Some((1.0, 7.0)));

        let empty = single(DSort);
        a.merge(&empty);
        assert_eq!(extremes(&a), Some((1.0, 7.0)));

        let mut c = single(DSort);
        c.merge(&a);
        assert_eq!(extremes(&c), Some((1.0, 7.0)));
    }

    /// `<` / `>` against `NaN` are false: a `NaN` first value stays the
    /// extremes, a later one changes nothing, and `-0.0` never replaces
    /// an equal `0.0`.
    #[test]
    fn dsort_nan_and_signed_zero() {
        let mut a = single(DSort);
        a.update(f64::NAN);
        a.update(1.0);
        let (min, max) = extremes(&a).unwrap();
        assert!(min.is_nan() && max.is_nan());
        let mut b = single(DSort);
        b.update(0.0);
        b.update(f64::NAN);
        b.update(-0.0);
        assert_eq!(
            extremes(&b).map(|(min, max)| (min.to_bits(), max.to_bits())),
            Some((0.0f64.to_bits(), 0.0f64.to_bits()))
        );
    }

    #[test]
    fn nsort_seals_sorted() {
        let mut a = single(NSort);
        for v in [3.0, 1.0, 2.0] {
            a.update(v);
        }
        a.seal();
        assert!(a.sorted);
        assert_eq!(a.values, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn nsort_already_sorted_input_avoids_resort_flag() {
        let mut a = single(NSort);
        for v in [1.0, 2.0, 3.0] {
            a.update(v);
        }
        assert!(a.sorted);
    }

    #[test]
    fn nsort_merge_of_sealed_runs_is_sorted() {
        let mut a = single(NSort);
        for v in [5.0, 1.0, 3.0] {
            a.update(v);
        }
        a.seal();
        let mut b = single(NSort);
        for v in [4.0, 2.0] {
            b.update(v);
        }
        b.seal();
        a.merge(&b);
        assert!(a.sorted);
        assert_eq!(a.values, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    /// A sealed non-decomposable sort over `values`.
    fn sealed(values: &[f64]) -> OperatorBundle {
        let mut state = single(NSort);
        for v in values {
            state.update(*v);
        }
        state.seal();
        state
    }

    /// The kept values' bit patterns: `==` on `f64` calls `0.0` and
    /// `-0.0` equal and no `NaN` equal to itself.
    fn bits(state: &OperatorBundle) -> Vec<u64> {
        assert!(state.sorted);
        state.values.iter().map(|v| v.to_bits()).collect()
    }

    fn merged(parts: &[&OperatorBundle]) -> OperatorBundle {
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
        let mut a = single(NSort);
        a.update(5.0);
        a.update(1.0); // now unsorted
        let mut b = single(NSort);
        b.update(2.0);
        a.merge(&b);
        a.seal();
        assert_eq!(a.values, vec![1.0, 2.0, 5.0]);
    }

    #[test]
    fn payload_lengths() {
        let mut n = single(NSort);
        n.update(1.0);
        n.update(2.0);
        assert_eq!(n.payload_len(), 2);
        assert_eq!(single(Sum).payload_len(), 1);
        assert_eq!(single(DSort).payload_len(), 2);
    }

    /// Equality reads the present kinds only: a bundle merged into an
    /// empty one equals a fresh bundle fed the same values, whatever the
    /// empty bundle's unused fields held.
    #[test]
    fn merging_into_an_empty_bundle_adopts_equal_states() {
        let all = OperatorKind::ALL.into_iter().collect::<OperatorSet>();
        let mut fresh = OperatorBundle::new(all);
        for v in [3.0, -0.0, 1.5] {
            fresh.update(v);
        }
        let mut adopted = OperatorBundle::new(OperatorSet::EMPTY);
        adopted.count = 99;
        adopted.values.push(7.0);
        adopted.merge(&fresh);
        assert_eq!(adopted, fresh);
        assert_eq!(adopted.operator_set(), all);
        let mut other = fresh.clone();
        other.sum_sq += 1.0;
        assert_ne!(other, fresh);
        let mut unseen = single(DSort);
        unseen.min = 5.0;
        assert_eq!(unseen, single(DSort));
    }

    fn bundle_for(funcs: &[AggFunction]) -> OperatorBundle {
        let set = funcs
            .iter()
            .map(AggFunction::operators)
            .fold(OperatorSet::EMPTY, |acc, s| acc | s)
            .subsume_sorts();
        OperatorBundle::new(set)
    }

    #[test]
    fn avg_and_sum_share_two_operators() {
        let mut b = bundle_for(&[AggFunction::Average, AggFunction::Sum]);
        assert_eq!(b.operator_set().len(), 2);
        let calcs = b.update(10.0) + b.update(20.0);
        // Two operators (sum, count) per event, not three.
        assert_eq!(calcs, 4);
        b.seal();
        assert_eq!(b.finalize(&AggFunction::Sum), Some(30.0));
        assert_eq!(b.finalize(&AggFunction::Average), Some(15.0));
    }

    #[test]
    fn quantile_and_max_share_one_operator() {
        let mut b = bundle_for(&[AggFunction::Quantile(0.5), AggFunction::Max]);
        assert_eq!(b.operator_set().len(), 1, "NSort subsumes DSort");
        for v in [3.0, 1.0, 2.0] {
            b.update(v);
        }
        b.seal();
        assert_eq!(b.finalize(&AggFunction::Max), Some(3.0));
        assert_eq!(b.finalize(&AggFunction::Min), Some(1.0));
        assert_eq!(b.finalize(&AggFunction::Quantile(0.5)), Some(2.0));
        assert_eq!(b.finalize(&AggFunction::Median), Some(2.0));
    }

    #[test]
    fn min_max_prefer_decomposable_sort() {
        let mut b = bundle_for(&[AggFunction::Min, AggFunction::Max]);
        assert_eq!(b.operator_set().len(), 1);
        assert!(b.operator_set().contains(OperatorKind::DecomposableSort));
        for v in [5.0, -1.0, 3.0] {
            b.update(v);
        }
        b.seal();
        assert_eq!(b.finalize(&AggFunction::Min), Some(-1.0));
        assert_eq!(b.finalize(&AggFunction::Max), Some(5.0));
    }

    #[test]
    fn geometric_mean() {
        let mut b = bundle_for(&[AggFunction::GeometricMean]);
        for v in [2.0, 8.0] {
            b.update(v);
        }
        b.seal();
        let g = b.finalize(&AggFunction::GeometricMean).unwrap();
        assert!((g - 4.0).abs() < 1e-9);
    }

    #[test]
    fn product() {
        let mut b = bundle_for(&[AggFunction::Product]);
        for v in [2.0, 3.0, 4.0] {
            b.update(v);
        }
        b.seal();
        assert_eq!(b.finalize(&AggFunction::Product), Some(24.0));
    }

    #[test]
    fn empty_bundle_yields_no_results() {
        let mut b = bundle_for(&[
            AggFunction::Average,
            AggFunction::Median,
            AggFunction::Min,
            AggFunction::Product,
        ]);
        b.seal();
        assert_eq!(b.finalize(&AggFunction::Average), None);
        assert_eq!(b.finalize(&AggFunction::Median), None);
        assert_eq!(b.finalize(&AggFunction::Min), None);
        assert_eq!(b.finalize(&AggFunction::Max), None);
        // Count of an empty window is a legitimate 0.
        assert_eq!(b.finalize(&AggFunction::Count), Some(0.0));
    }

    #[test]
    fn merge_combines_partial_results() {
        let funcs = [AggFunction::Average, AggFunction::Median];
        let mut a = bundle_for(&funcs);
        for v in [1.0, 2.0] {
            a.update(v);
        }
        a.seal();
        let mut b = bundle_for(&funcs);
        for v in [3.0, 4.0] {
            b.update(v);
        }
        b.seal();
        a.merge(&b);
        assert_eq!(a.finalize(&AggFunction::Average), Some(2.5));
        assert_eq!(a.finalize(&AggFunction::Median), Some(2.5));
        assert_eq!(a.event_count(), Some(4));
    }

    #[test]
    fn merge_into_missing_state_adopts_it() {
        let mut a = OperatorBundle::new(OperatorSet::EMPTY);
        let mut b = bundle_for(&[AggFunction::Sum, AggFunction::Count]);
        b.update(5.0);
        a.merge(&b);
        assert_eq!(a.finalize(&AggFunction::Sum), Some(5.0));
    }

    #[test]
    fn quantile_interpolation() {
        let mut b = bundle_for(&[AggFunction::Quantile(0.25)]);
        for v in [1.0, 2.0, 3.0, 4.0] {
            b.update(v);
        }
        b.seal();
        // pos = 0.25 * 3 = 0.75 -> 1.0 * 0.25 + 2.0 * 0.75 = 1.75
        assert_eq!(b.finalize(&AggFunction::Quantile(0.25)), Some(1.75));
        assert_eq!(b.finalize(&AggFunction::Median), Some(2.5));
    }

    #[test]
    fn median_single_value() {
        let mut b = bundle_for(&[AggFunction::Median]);
        b.update(42.0);
        b.seal();
        assert_eq!(b.finalize(&AggFunction::Median), Some(42.0));
    }

    #[test]
    fn payload_accounting() {
        let mut b = bundle_for(&[AggFunction::Average]);
        b.update(1.0);
        b.update(2.0);
        assert_eq!(b.payload_len(), 2); // sum + count scalars

        let mut n = bundle_for(&[AggFunction::Median]);
        n.update(1.0);
        n.update(2.0);
        n.update(3.0);
        assert_eq!(n.payload_len(), 3); // all kept values
    }
}
