//! Merge functions `mΣ` and `m{T,F}` (Definition 1).
//!
//! A merge function aggregates the distributions of the references inside a
//! set into the entity-level distribution. The paper's evaluation uses
//! *average* for both labels and edges, and so does every graph compiled
//! here: the label merge `mΣ` is
//! [`LabelDist::average`](graphstore::dist::LabelDist::average), the edge
//! merge `m{T,F}` is [`average_edges`].

use graphstore::dist::{CondTable, EdgeProbability};

/// Promotes an independent probability to a constant CPT.
fn to_table(p: &EdgeProbability, n_labels: usize) -> CondTable {
    match p {
        EdgeProbability::Independent(q) => CondTable::from_fn(n_labels, |_, _| *q),
        EdgeProbability::Conditional(t) => t.clone(),
    }
}

/// Average edge merge `m{T,F}` over the existence probability of every
/// reference pair `(r1, r2) ∈ s1 × s2`; pairs without a declared edge
/// appear as `Independent(0.0)` (every pair has a distribution in the PGD,
/// absent edges just have zero probability). `n_labels` sizes CPTs when
/// conditional probabilities are involved.
pub fn average_edges(probs: &[EdgeProbability], n_labels: usize) -> EdgeProbability {
    assert!(!probs.is_empty(), "merge of no distributions");
    if probs.iter().all(|p| matches!(p, EdgeProbability::Independent(_))) {
        let sum: f64 = probs.iter().map(|p| p.max_prob()).sum();
        return EdgeProbability::Independent(sum / probs.len() as f64);
    }
    let tables: Vec<CondTable> = probs.iter().map(|p| to_table(p, n_labels)).collect();
    let refs: Vec<&CondTable> = tables.iter().collect();
    EdgeProbability::Conditional(CondTable::average(&refs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphstore::dist::LabelDist;
    use graphstore::Label;

    #[test]
    fn average_edge_matches_paper_example() {
        // Figure 1: merging edge probs {1.0, 0.5} gives 0.75 for s34–s2.
        let out = average_edges(
            &[EdgeProbability::Independent(1.0), EdgeProbability::Independent(0.5)],
            3,
        );
        assert_eq!(out, EdgeProbability::Independent(0.75));
    }

    #[test]
    fn average_includes_zero_pairs() {
        let out = average_edges(
            &[EdgeProbability::Independent(0.9), EdgeProbability::Independent(0.0)],
            3,
        );
        assert_eq!(out, EdgeProbability::Independent(0.45));
    }

    #[test]
    fn average_mixing_cpt_and_scalar() {
        let cpt = CondTable::from_fn(2, |a, b| if a == b { 1.0 } else { 0.0 });
        let out = average_edges(
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
    fn label_average_dispatch() {
        let d1 = LabelDist::delta(Label(0), 2);
        let d2 = LabelDist::delta(Label(1), 2);
        let m = LabelDist::average(&[d1.row(), d2.row()]);
        assert_eq!(m.prob(Label(0)), 0.5);
    }
}
