//! Probability distributions attached to nodes and edges.

use crate::labels::Label;

/// Tolerance for distribution validation.
pub const DIST_EPS: f64 = 1e-9;

/// A distribution over node labels, stored densely over the alphabet.
///
/// A `LabelDist` need not sum to one in intermediate states, but
/// [`LabelDist::validate`] checks it; entries must be non-negative.
#[derive(Clone, Debug, PartialEq)]
pub struct LabelDist {
    probs: Vec<f64>,
}

impl LabelDist {
    /// The all-zero distribution over an alphabet of `n_labels`.
    pub fn zeros(n_labels: usize) -> Self {
        Self { probs: vec![0.0; n_labels] }
    }

    /// A point distribution: probability 1 on `label`.
    pub fn delta(label: Label, n_labels: usize) -> Self {
        let mut d = Self::zeros(n_labels);
        d.probs[label.idx()] = 1.0;
        d
    }

    /// Builds from `(label, prob)` pairs; unlisted labels get zero.
    ///
    /// # Panics
    /// Panics on out-of-range labels or negative probabilities.
    pub fn from_pairs(pairs: &[(Label, f64)], n_labels: usize) -> Self {
        let mut d = Self::zeros(n_labels);
        for &(l, p) in pairs {
            assert!(l.idx() < n_labels, "label out of range");
            assert!(p >= 0.0, "negative probability");
            d.probs[l.idx()] += p;
        }
        d
    }

    /// This distribution as a borrowed row.
    #[inline]
    pub fn row(&self) -> LabelRow<'_> {
        LabelRow { probs: &self.probs }
    }

    /// Probability of `label` (zero when out of range).
    #[inline]
    pub fn prob(&self, label: Label) -> f64 {
        self.row().prob(label)
    }

    /// Alphabet size this distribution is defined over.
    pub fn n_labels(&self) -> usize {
        self.probs.len()
    }

    /// Labels with non-zero probability (the set `L(s)` of the paper).
    pub fn support(&self) -> impl Iterator<Item = Label> + '_ {
        self.row().support()
    }

    /// Number of labels with non-zero probability.
    pub fn support_size(&self) -> usize {
        self.row().support_size()
    }

    /// Checks the distribution sums to 1 (within [`DIST_EPS`]).
    pub fn validate(&self) -> bool {
        self.row().validate()
    }

    /// Scales entries so they sum to 1.
    ///
    /// # Panics
    /// Panics on an all-zero distribution.
    pub fn normalize(&mut self) {
        let sum: f64 = self.probs.iter().sum();
        assert!(sum > 0.0, "cannot normalize zero distribution");
        for p in &mut self.probs {
            *p /= sum;
        }
    }

    /// Pointwise average of several distributions — the paper's `mΣ` merge
    /// function used throughout its evaluation.
    ///
    /// # Panics
    /// Panics when `dists` is empty or alphabet sizes differ.
    pub fn average(dists: &[LabelRow<'_>]) -> LabelDist {
        assert!(!dists.is_empty(), "average of no distributions");
        let n = dists[0].n_labels();
        let mut out = LabelDist::zeros(n);
        for d in dists {
            assert_eq!(d.n_labels(), n, "alphabet size mismatch");
            for (o, p) in out.probs.iter_mut().zip(d.probs) {
                *o += p;
            }
        }
        let k = dists.len() as f64;
        for o in &mut out.probs {
            *o /= k;
        }
        out
    }

    /// Raw dense probabilities.
    pub fn as_slice(&self) -> &[f64] {
        &self.probs
    }
}

/// A borrowed label distribution: one row of a graph's flat label column
/// ([`crate::EntityGraph::node`], [`crate::RefGraph::reference`]) or a
/// view of a [`LabelDist`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LabelRow<'a> {
    probs: &'a [f64],
}

impl<'a> LabelRow<'a> {
    /// The row over `probs`, one entry per label of the alphabet.
    #[inline]
    pub(crate) fn new(probs: &'a [f64]) -> Self {
        Self { probs }
    }

    /// Probability of `label` (zero when out of range).
    #[inline]
    pub fn prob(self, label: Label) -> f64 {
        self.probs.get(label.idx()).copied().unwrap_or(0.0)
    }

    /// Alphabet size this row is defined over.
    pub fn n_labels(self) -> usize {
        self.probs.len()
    }

    /// Labels with non-zero probability (the set `L(s)` of the paper).
    pub fn support(self) -> impl Iterator<Item = Label> + 'a {
        self.probs.iter().enumerate().filter(|(_, &p)| p > 0.0).map(|(i, _)| Label(i as u16))
    }

    /// Number of labels with non-zero probability.
    pub fn support_size(self) -> usize {
        self.probs.iter().filter(|&&p| p > 0.0).count()
    }

    /// Checks the row sums to 1 (within [`DIST_EPS`]).
    pub fn validate(self) -> bool {
        let sum: f64 = self.probs.iter().sum();
        (sum - 1.0).abs() <= DIST_EPS && self.probs.iter().all(|&p| p >= 0.0)
    }

    /// Raw dense probabilities.
    pub fn as_slice(self) -> &'a [f64] {
        self.probs
    }

    /// An owned copy.
    pub fn to_dist(self) -> LabelDist {
        LabelDist { probs: self.probs.to_vec() }
    }
}

/// A conditional probability table for an edge whose existence depends on the
/// labels of its two endpoints: `Pr(e | l_a, l_b)` (Section 5.3).
///
/// The table is oriented: rows are the label of the edge's first stored
/// endpoint, columns the second.
#[derive(Clone, Debug, PartialEq)]
pub struct CondTable {
    n_labels: usize,
    /// Row-major `[l_a][l_b]`.
    table: Vec<f64>,
}

impl CondTable {
    /// An all-zero table over `n_labels` × `n_labels`.
    pub fn zeros(n_labels: usize) -> Self {
        Self { n_labels, table: vec![0.0; n_labels * n_labels] }
    }

    /// Builds from a closure evaluated for every label pair.
    pub fn from_fn(n_labels: usize, mut f: impl FnMut(Label, Label) -> f64) -> Self {
        let mut t = Self::zeros(n_labels);
        for a in 0..n_labels {
            for b in 0..n_labels {
                let p = f(Label(a as u16), Label(b as u16));
                assert!((0.0..=1.0).contains(&p), "probability out of range");
                t.table[a * n_labels + b] = p;
            }
        }
        t
    }

    /// `Pr(e | l_a = a, l_b = b)`.
    #[inline]
    pub fn prob(&self, a: Label, b: Label) -> f64 {
        self.table[a.idx() * self.n_labels + b.idx()]
    }

    /// Sets one entry.
    pub fn set(&mut self, a: Label, b: Label, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.table[a.idx() * self.n_labels + b.idx()] = p;
    }

    /// Alphabet size.
    pub fn n_labels(&self) -> usize {
        self.n_labels
    }

    /// Maximum entry (upper bound with both endpoint labels unknown).
    pub fn max_prob(&self) -> f64 {
        self.table.iter().copied().fold(0.0, f64::max)
    }

    /// Maximum over the unknown endpoint given the other endpoint's label.
    /// `first_known` selects whether `known` is the row (first endpoint).
    pub fn max_given(&self, known: Label, first_known: bool) -> f64 {
        let n = self.n_labels;
        let mut m = 0.0f64;
        for other in 0..n {
            let p = if first_known {
                self.table[known.idx() * n + other]
            } else {
                self.table[other * n + known.idx()]
            };
            m = m.max(p);
        }
        m
    }

    /// Pointwise average of several tables (the `m{T,F}` merge for CPTs).
    pub fn average(tables: &[&CondTable]) -> CondTable {
        assert!(!tables.is_empty());
        let n = tables[0].n_labels;
        let mut out = CondTable::zeros(n);
        for t in tables {
            assert_eq!(t.n_labels, n, "alphabet size mismatch");
            for (o, p) in out.table.iter_mut().zip(&t.table) {
                *o += p;
            }
        }
        let k = tables.len() as f64;
        for o in &mut out.table {
            *o /= k;
        }
        out
    }

    /// Raw table (row-major).
    pub fn as_slice(&self) -> &[f64] {
        &self.table
    }
}

/// Edge existence probability: either a plain probability (the default
/// model) or conditional on the endpoint labels (Section 5.3).
#[derive(Clone, Debug, PartialEq)]
pub enum EdgeProbability {
    /// `Pr(e = T)`, independent of labels.
    Independent(f64),
    /// `Pr(e = T | l_a, l_b)` as a [`CondTable`] oriented by the edge's
    /// stored endpoints.
    Conditional(CondTable),
}

impl EdgeProbability {
    /// Existence probability given endpoint labels, oriented so that `la`
    /// belongs to the edge's first stored endpoint.
    #[inline]
    pub fn prob(&self, la: Label, lb: Label) -> f64 {
        match self {
            EdgeProbability::Independent(p) => *p,
            EdgeProbability::Conditional(t) => t.prob(la, lb),
        }
    }

    /// True when the probability is label-conditional (Section 5.3).
    pub fn is_conditional(&self) -> bool {
        matches!(self, EdgeProbability::Conditional(_))
    }

    /// Upper bound over all label combinations.
    pub fn max_prob(&self) -> f64 {
        match self {
            EdgeProbability::Independent(p) => *p,
            EdgeProbability::Conditional(t) => t.max_prob(),
        }
    }

    /// Upper bound given one endpoint's label (`first_known` = label belongs
    /// to the first stored endpoint).
    pub fn max_given(&self, known: Label, first_known: bool) -> f64 {
        match self {
            EdgeProbability::Independent(p) => *p,
            EdgeProbability::Conditional(t) => t.max_given(known, first_known),
        }
    }

    /// True when the edge can exist under some labeling.
    pub fn is_possible(&self) -> bool {
        self.max_prob() > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_and_support() {
        let d = LabelDist::delta(Label(1), 3);
        assert!(d.validate());
        assert_eq!(d.prob(Label(1)), 1.0);
        assert_eq!(d.support().collect::<Vec<_>>(), vec![Label(1)]);
        assert_eq!(d.support_size(), 1);
    }

    #[test]
    fn from_pairs_accumulates() {
        let d = LabelDist::from_pairs(&[(Label(0), 0.25), (Label(2), 0.75)], 3);
        assert!(d.validate());
        assert_eq!(d.prob(Label(2)), 0.75);
        assert_eq!(d.prob(Label(1)), 0.0);
    }

    #[test]
    fn average_matches_paper_example() {
        // Figure 1: merging r(1.0) with i(1.0) yields r(0.5), i(0.5).
        let r = LabelDist::delta(Label(0), 3);
        let i = LabelDist::delta(Label(2), 3);
        let m = LabelDist::average(&[r.row(), i.row()]);
        assert_eq!(m.prob(Label(0)), 0.5);
        assert_eq!(m.prob(Label(2)), 0.5);
        assert!(m.validate());
    }

    #[test]
    fn normalize_scales() {
        let mut d = LabelDist::from_pairs(&[(Label(0), 2.0), (Label(1), 6.0)], 2);
        d.normalize();
        assert!((d.prob(Label(0)) - 0.25).abs() < 1e-12);
        assert!(d.validate());
    }

    #[test]
    fn cond_table_lookup_and_bounds() {
        let t = CondTable::from_fn(2, |a, b| if a == b { 0.9 } else { 0.2 });
        assert_eq!(t.prob(Label(0), Label(0)), 0.9);
        assert_eq!(t.prob(Label(0), Label(1)), 0.2);
        assert_eq!(t.max_prob(), 0.9);
        assert_eq!(t.max_given(Label(1), true), 0.9);
        let mut t2 = t.clone();
        t2.set(Label(0), Label(1), 1.0);
        assert_eq!(t2.max_given(Label(0), true), 1.0);
        assert_eq!(t2.max_given(Label(1), false), 1.0);
    }

    #[test]
    fn cond_table_average() {
        let a = CondTable::from_fn(2, |_, _| 1.0);
        let b = CondTable::from_fn(2, |_, _| 0.5);
        let m = CondTable::average(&[&a, &b]);
        assert_eq!(m.prob(Label(0), Label(1)), 0.75);
    }

    #[test]
    fn edge_probability_dispatch() {
        let e = EdgeProbability::Independent(0.4);
        assert_eq!(e.prob(Label(0), Label(1)), 0.4);
        assert_eq!(e.max_prob(), 0.4);
        assert!(e.is_possible());
        let c = EdgeProbability::Conditional(CondTable::from_fn(
            2,
            |a, b| {
                if a == b {
                    0.8
                } else {
                    0.0
                }
            },
        ));
        assert_eq!(c.prob(Label(1), Label(1)), 0.8);
        assert_eq!(c.max_given(Label(0), false), 0.8);
        assert!(c.is_possible());
        assert!(!EdgeProbability::Independent(0.0).is_possible());
    }
}
