//! Merge functions `mΣ` and `m{T,F}` (Definition 1).
//!
//! A merge function aggregates the distributions of the references inside a
//! set into the entity-level distribution. The paper's evaluation uses
//! *average* for both labels and edges; *disjunct* (noisy-or) is mentioned as
//! an alternative for edge existence. Users can provide their own by
//! implementing [`LabelMerge`] / [`EdgeMerge`].

use graphstore::dist::{CondTable, EdgeProbability, LabelDist, LabelRow};

/// Merge function for node label distributions (`mΣ`).
pub trait LabelMerge: Sync {
    /// Combines one or more label distributions, each a borrowed row of
    /// the reference network's label column, into one.
    fn merge(&self, dists: &[LabelRow<'_>]) -> LabelDist;
}

/// Merge function for edge existence distributions (`m{T,F}`).
///
/// The input slice contains the existence probability of every reference
/// pair `(r1, r2) ∈ s1 × s2`; pairs without a declared edge appear as
/// `Independent(0.0)` (every pair has a distribution in the PGD, absent
/// edges just have zero probability).
pub trait EdgeMerge: Sync {
    /// Combines pairwise existence probabilities; `n_labels` sizes CPTs when
    /// conditional probabilities are involved.
    fn merge(&self, probs: &[EdgeProbability], n_labels: usize) -> EdgeProbability;
}

/// Arithmetic mean — the merge used throughout the paper's evaluation.
#[derive(Clone, Copy, Debug, Default)]
pub struct AverageMerge;

impl LabelMerge for AverageMerge {
    fn merge(&self, dists: &[LabelRow<'_>]) -> LabelDist {
        LabelDist::average(dists)
    }
}

/// Promotes an independent probability to a constant CPT.
fn to_table(p: &EdgeProbability, n_labels: usize) -> CondTable {
    match p {
        EdgeProbability::Independent(q) => CondTable::from_fn(n_labels, |_, _| *q),
        EdgeProbability::Conditional(t) => t.clone(),
    }
}

impl EdgeMerge for AverageMerge {
    fn merge(&self, probs: &[EdgeProbability], n_labels: usize) -> EdgeProbability {
        assert!(!probs.is_empty(), "merge of no distributions");
        if probs.iter().all(|p| matches!(p, EdgeProbability::Independent(_))) {
            let sum: f64 = probs.iter().map(|p| p.max_prob()).sum();
            return EdgeProbability::Independent(sum / probs.len() as f64);
        }
        let tables: Vec<CondTable> = probs.iter().map(|p| to_table(p, n_labels)).collect();
        let refs: Vec<&CondTable> = tables.iter().collect();
        EdgeProbability::Conditional(CondTable::average(&refs))
    }
}

/// Noisy-or: the merged edge exists when *any* underlying pair edge exists
/// (`1 − ∏(1 − p_i)`); the paper's "disjunct" example for `m{T,F}`.
#[derive(Clone, Copy, Debug, Default)]
pub struct DisjunctMerge;

impl EdgeMerge for DisjunctMerge {
    fn merge(&self, probs: &[EdgeProbability], n_labels: usize) -> EdgeProbability {
        assert!(!probs.is_empty(), "merge of no distributions");
        if probs.iter().all(|p| matches!(p, EdgeProbability::Independent(_))) {
            let q: f64 = probs.iter().map(|p| 1.0 - p.max_prob()).product();
            return EdgeProbability::Independent(1.0 - q);
        }
        let tables: Vec<CondTable> = probs.iter().map(|p| to_table(p, n_labels)).collect();
        let merged = CondTable::from_fn(n_labels, |a, b| {
            1.0 - tables.iter().map(|t| 1.0 - t.prob(a, b)).product::<f64>()
        });
        EdgeProbability::Conditional(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphstore::Label;

    #[test]
    fn average_edge_matches_paper_example() {
        // Figure 1: merging edge probs {1.0, 0.5} gives 0.75 for s34–s2.
        let m = AverageMerge;
        let out = EdgeMerge::merge(
            &m,
            &[EdgeProbability::Independent(1.0), EdgeProbability::Independent(0.5)],
            3,
        );
        assert_eq!(out, EdgeProbability::Independent(0.75));
    }

    #[test]
    fn average_includes_zero_pairs() {
        let m = AverageMerge;
        let out = EdgeMerge::merge(
            &m,
            &[EdgeProbability::Independent(0.9), EdgeProbability::Independent(0.0)],
            3,
        );
        assert_eq!(out, EdgeProbability::Independent(0.45));
    }

    #[test]
    fn average_mixing_cpt_and_scalar() {
        let m = AverageMerge;
        let cpt = CondTable::from_fn(2, |a, b| if a == b { 1.0 } else { 0.0 });
        let out = EdgeMerge::merge(
            &m,
            &[EdgeProbability::Conditional(cpt), EdgeProbability::Independent(0.5)],
            2,
        );
        match out {
            EdgeProbability::Conditional(t) => {
                assert_eq!(t.prob(Label(0), Label(0)), 0.75);
                assert_eq!(t.prob(Label(0), Label(1)), 0.25);
            }
            _ => panic!("expected conditional output"),
        }
    }

    #[test]
    fn disjunct_is_noisy_or() {
        let m = DisjunctMerge;
        let out = EdgeMerge::merge(
            &m,
            &[EdgeProbability::Independent(0.5), EdgeProbability::Independent(0.5)],
            2,
        );
        assert_eq!(out, EdgeProbability::Independent(0.75));
        let one = EdgeMerge::merge(
            &m,
            &[EdgeProbability::Independent(1.0), EdgeProbability::Independent(0.0)],
            2,
        );
        assert_eq!(one, EdgeProbability::Independent(1.0));
    }

    #[test]
    fn label_average_dispatch() {
        let d1 = LabelDist::delta(Label(0), 2);
        let d2 = LabelDist::delta(Label(1), 2);
        let m = LabelMerge::merge(&AverageMerge, &[d1.row(), d2.row()]);
        assert_eq!(m.prob(Label(0)), 0.5);
    }
}
