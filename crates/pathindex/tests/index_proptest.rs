//! Property tests: on random labeled graphs, index lookups must equal
//! direct constrained path enumeration, for every label sequence, threshold
//! and orientation; histograms must upper-bound reality consistently.

use graphstore::dist::{EdgeProbability, LabelDist};
use graphstore::{EntityGraph, EntityGraphBuilder, Label, LabelTable, RefId};
use pathindex::{build_index, enumerate_paths_online, NoIdentity, PathIndexConfig, PathMatch};
use proptest::prelude::*;

/// Compares match sets: node sequences exactly, probabilities within an
/// epsilon (index and enumeration multiply factors in different orders).
fn assert_matches_eq(a: &[PathMatch], b: &[PathMatch]) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len(), "lengths differ: {:?} vs {:?}", a, b);
    for (x, y) in a.iter().zip(b) {
        prop_assert_eq!(&x.nodes, &y.nodes);
        prop_assert!((x.prle - y.prle).abs() < 1e-9);
        prop_assert!((x.prn - y.prn).abs() < 1e-9);
    }
    Ok(())
}

#[derive(Clone, Debug)]
struct RandomGraph {
    n: usize,
    labels: Vec<u16>,
    edges: Vec<(u8, u8, f64)>,
}

fn graph_strategy() -> impl Strategy<Value = RandomGraph> {
    (4usize..=9)
        .prop_flat_map(|n| {
            let labels = proptest::collection::vec(0u16..3, n);
            let edges =
                proptest::collection::vec((0u8..n as u8, 0u8..n as u8, 0.2f64..=1.0), 0..=(2 * n));
            (Just(n), labels, edges)
        })
        .prop_map(|(n, labels, raw)| {
            let mut edges = Vec::new();
            for (a, b, p) in raw {
                if a != b {
                    let key = (a.min(b), a.max(b));
                    if !edges.iter().any(|&(x, y, _)| (x, y) == key) {
                        edges.push((key.0, key.1, p));
                    }
                }
            }
            RandomGraph { n, labels, edges }
        })
}

fn build(g: &RandomGraph) -> EntityGraph {
    let table = LabelTable::from_names(["x", "y", "z"]);
    let n_labels = table.len();
    let mut b = EntityGraphBuilder::new(table);
    for i in 0..g.n {
        b.add_node(LabelDist::delta(Label(g.labels[i]), n_labels), vec![RefId(i as u32)]);
    }
    for &(x, y, p) in &g.edges {
        b.add_edge(
            graphstore::EntityId(x as u32),
            graphstore::EntityId(y as u32),
            EdgeProbability::Independent(p),
        );
    }
    b.build()
}

fn all_sequences(max_len: usize) -> Vec<Vec<Label>> {
    let mut out: Vec<Vec<Label>> = (0..3u16).map(|l| vec![Label(l)]).collect();
    for _ in 0..max_len {
        let mut next = Vec::new();
        for seq in &out {
            if seq.len() == max_len + 1 {
                continue;
            }
            for l in 0..3u16 {
                let mut s = seq.clone();
                s.push(Label(l));
                next.push(s);
            }
        }
        out.extend(next);
    }
    out.sort();
    out.dedup();
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    #[test]
    fn lookup_equals_enumeration(g in graph_strategy()) {
        let graph = build(&g);
        let config = PathIndexConfig { max_len: 3, beta: 0.2, ..Default::default() };
        let index = build_index(&graph, &NoIdentity, &config);
        for seq in all_sequences(3) {
            for alpha in [0.2, 0.5, 0.8] {
                let mut a = index.lookup(&seq, alpha).to_vec();
                let mut b = enumerate_paths_online(&graph, &NoIdentity, &seq, alpha).to_vec();
                a.sort_by(|x, y| x.nodes.cmp(&y.nodes));
                b.sort_by(|x, y| x.nodes.cmp(&y.nodes));
                assert_matches_eq(&a, &b)?;
            }
        }
    }

    #[test]
    fn histogram_counts_exact_at_grid_points(g in graph_strategy()) {
        let graph = build(&g);
        let config = PathIndexConfig { max_len: 2, beta: 0.2, ..Default::default() };
        let index = build_index(&graph, &NoIdentity, &config);
        for seq in all_sequences(2) {
            // Histogram grid points store exact counts; estimates at those
            // points must match exact lookups.
            for alpha in [0.3, 0.5, 0.7, 0.9] {
                let est = index.estimate_count(&seq, alpha);
                let exact = index.count_exact(&seq, alpha) as f64;
                prop_assert!((est - exact).abs() < 1e-9,
                    "seq {:?} alpha {}: est {} exact {}", seq, alpha, est, exact);
            }
        }
    }

    #[test]
    fn all_entries_respect_beta(g in graph_strategy()) {
        let graph = build(&g);
        for beta in [0.3, 0.6] {
            let config = PathIndexConfig { max_len: 3, beta, ..Default::default() };
            let index = build_index(&graph, &NoIdentity, &config);
            for seq in all_sequences(3) {
                for m in index.lookup(&seq, 0.0).iter() {
                    prop_assert!(m.prob() + 1e-9 >= beta);
                }
            }
        }
    }
}
