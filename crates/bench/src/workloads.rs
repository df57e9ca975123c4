//! Shared workload construction for benches and the experiments binary.

use datagen::{synthetic_refgraph, SyntheticConfig};
use pathindex::PathIndexConfig;
use pegmatch::model::{Peg, PegBuilder};
use pegmatch::offline::{OfflineIndex, OfflineOptions};

/// Experiment scale: graph sizes swept by the harness.
///
/// The paper runs 50k–1m references on a 117 GB EC2 instance; the default
/// scales keep the full suite in laptop territory while preserving relative
/// shapes. `Paper` reproduces the published sizes (hours of runtime and tens
/// of GB for L = 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// CI-sized: seconds per figure.
    Tiny,
    /// Default for `experiments`: minutes for the full suite.
    Small,
    /// The paper's sizes.
    Paper,
}

impl Scale {
    /// Parses `tiny|small|paper`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// The graph-size sweep (number of references), smallest first.
    pub fn graph_sizes(self) -> Vec<usize> {
        match self {
            Scale::Tiny => vec![200, 400, 800, 1600],
            Scale::Small => vec![500, 1000, 2000, 4000],
            Scale::Paper => vec![50_000, 100_000, 500_000, 1_000_000],
        }
    }

    /// The default graph size for single-size experiments (the paper's 100k).
    pub fn default_graph(self) -> usize {
        match self {
            Scale::Tiny => 400,
            Scale::Small => 1000,
            Scale::Paper => 100_000,
        }
    }

    /// Maximum index path length to sweep (L = 3 everywhere, but Tiny keeps
    /// the index small by capping β sweeps instead).
    pub fn max_l(self) -> usize {
        3
    }
}

/// A prepared workload: a reference network, the PEG compiled from it,
/// and per-`L` offline indexes.
pub struct Workload {
    /// The reference network the PEG was compiled from.
    pub refs: graphstore::RefGraph,
    /// The probabilistic entity graph.
    pub peg: Peg,
    /// Offline index per path length; `index[l - 1]` holds `L = l`.
    pub index_by_l: Vec<OfflineIndex>,
}

impl Workload {
    /// Builds the synthetic workload of the paper for `n_refs` references at
    /// the given degree of uncertainty, with indexes for `L = 1..=max_l`.
    pub fn synthetic(n_refs: usize, uncertainty: f64, beta: f64, max_l: usize) -> Workload {
        let refs =
            synthetic_refgraph(&SyntheticConfig::paper_with_uncertainty(n_refs, uncertainty));
        Workload::from_refgraph(&refs, beta, max_l)
    }

    /// Builds a workload from an arbitrary reference graph.
    pub fn from_refgraph(refs: &graphstore::RefGraph, beta: f64, max_l: usize) -> Workload {
        let peg = PegBuilder::new().build(refs).expect("PEG builds");
        let index_by_l = (1..=max_l)
            .map(|l| {
                let opts = OfflineOptions {
                    index: PathIndexConfig { max_len: l, beta, ..Default::default() },
                };
                OfflineIndex::build(&peg, &opts).expect("offline phase")
            })
            .collect();
        Workload { refs: refs.clone(), peg, index_by_l }
    }

    /// The offline index for path length `l`.
    #[allow(clippy::should_implement_trait)]
    pub fn index(&self, l: usize) -> &OfflineIndex {
        &self.index_by_l[l - 1]
    }
}

/// Re-exported for workload construction: isomorphic renumbering of a
/// query (the building block of repeated-shape serving mixes).
pub use datagen::permuted_query;

/// Asserts two match lists are f64-bit-identical — same node images, same
/// `prle` bits, same `prn` bits. The gate sharded execution must pass
/// against the unsharded pipeline; shared so every `experiments` table
/// that compares two execution paths enforces exactly the same contract.
///
/// # Panics
/// Panics (with `ctx`) on the first divergence.
pub fn assert_matches_bit_identical(
    got: &[pegmatch::matcher::Match],
    want: &[pegmatch::matcher::Match],
    ctx: &str,
) {
    assert_eq!(got.len(), want.len(), "{ctx}: match count diverged");
    for (a, b) in got.iter().zip(want) {
        assert_eq!(a.nodes, b.nodes, "{ctx}: node images diverged");
        assert_eq!(a.prle.to_bits(), b.prle.to_bits(), "{ctx}: prle bits diverged");
        assert_eq!(a.prn.to_bits(), b.prn.to_bits(), "{ctx}: prn bits diverged");
    }
}

/// The paper's query-size ladder for Figure 6(c): a query of `n` nodes has
/// `min(4n, n(n−1)/2)` edges.
pub fn fig6c_query_sizes() -> Vec<(usize, usize)> {
    [3usize, 5, 7, 9, 11, 13, 15].into_iter().map(|n| (n, (4 * n).min(n * (n - 1) / 2))).collect()
}

/// Figure 6(d): 15-node queries of increasing density.
pub fn fig6d_query_sizes() -> Vec<(usize, usize)> {
    vec![(15, 20), (15, 40), (15, 60), (15, 80), (15, 100)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_parse_and_sweep() {
        assert_eq!(Scale::parse("tiny"), Some(Scale::Tiny));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("huge"), None);
        assert_eq!(Scale::Small.graph_sizes().len(), 4);
        assert_eq!(Scale::Paper.graph_sizes()[3], 1_000_000);
    }

    #[test]
    fn fig6c_ladder_matches_paper() {
        let ladder = fig6c_query_sizes();
        assert_eq!(ladder[0], (3, 3));
        assert_eq!(ladder[1], (5, 10));
        assert_eq!(ladder[2], (7, 21));
        assert_eq!(ladder[6], (15, 60));
    }

    #[test]
    fn workload_builds_with_all_lengths() {
        let w = Workload::synthetic(300, 0.2, 0.3, 3);
        assert_eq!(w.index_by_l.len(), 3);
        assert!(w.index(1).paths.n_entries() > 0);
        assert!(w.index(3).paths.n_entries() >= w.index(2).paths.n_entries());
    }

    #[test]
    fn permuted_query_is_isomorphic_not_identical() {
        use graphstore::Label;
        use pegmatch::query::QueryGraph;
        let q = QueryGraph::path(&[Label(0), Label(1), Label(2), Label(0)]).unwrap();
        let mut saw_different_text = false;
        for seed in 0..8 {
            let p = permuted_query(&q, seed);
            assert_eq!(p.n_nodes(), q.n_nodes());
            assert_eq!(p.n_edges(), q.n_edges());
            assert_eq!(p.shape_hash(), q.shape_hash(), "seed={seed}: same canonical shape");
            if p.edges() != q.edges() || p.labels() != q.labels() {
                saw_different_text = true;
            }
        }
        assert!(saw_different_text, "permutations vary the query text");
    }
}
