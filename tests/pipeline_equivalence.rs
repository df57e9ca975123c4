//! The core correctness property of the reproduction: on arbitrary
//! uncertain graphs, the optimized online pipeline (path index + context
//! pruning + k-partite reduction) returns **exactly** the matches of the
//! exhaustive backtracking matcher, for every index path length and every
//! baseline configuration.

use datagen::{random_query, sampled_query, synthetic_refgraph, QuerySpec, SyntheticConfig};
use pathindex::PathIndexConfig;
use pegmatch::matcher::{match_bruteforce, Match};
use pegmatch::model::PegBuilder;
use pegmatch::offline::{OfflineIndex, OfflineOptions};
use pegmatch::online::{QueryOptions, QueryPipeline};

fn assert_same(got: &[Match], want: &[Match], ctx: &str) {
    assert_eq!(
        got.len(),
        want.len(),
        "{ctx}: counts differ\n got: {:?}\nwant: {:?}",
        got.iter().map(|m| m.key()).collect::<Vec<_>>(),
        want.iter().map(|m| m.key()).collect::<Vec<_>>()
    );
    for (x, y) in got.iter().zip(want) {
        assert_eq!(x.nodes, y.nodes, "{ctx}: node sets differ");
        assert!((x.prle - y.prle).abs() < 1e-9, "{ctx}: prle differs");
        assert!((x.prn - y.prn).abs() < 1e-9, "{ctx}: prn differs");
    }
}

fn check_graph(n_refs: usize, uncertainty: f64, seed: u64) {
    let cfg =
        SyntheticConfig { seed, ..SyntheticConfig::paper_with_uncertainty(n_refs, uncertainty) };
    let refs = synthetic_refgraph(&cfg);
    let peg = PegBuilder::new().build(&refs).unwrap();
    let n_labels = peg.graph.label_table().len();

    for l in 1..=3usize {
        let idx = OfflineIndex::build(
            &peg,
            &OfflineOptions {
                index: PathIndexConfig { max_len: l, beta: 0.25, ..Default::default() },
            },
        )
        .unwrap();
        let pipe = QueryPipeline::new(&peg, &idx);

        // Random queries (mostly selective) and sampled queries (guaranteed
        // matches), at thresholds above and below β.
        let mut queries = Vec::new();
        for qseed in 0..3u64 {
            queries.push(random_query(QuerySpec::new(4, 5), n_labels, seed * 100 + qseed));
        }
        for qseed in 0..3u64 {
            if let Some(q) = sampled_query(&peg.graph, QuerySpec::new(4, 4), seed * 7 + qseed) {
                queries.push(q);
            }
            if let Some(q) = sampled_query(&peg.graph, QuerySpec::new(5, 6), seed * 13 + qseed) {
                queries.push(q);
            }
        }
        for (qi, q) in queries.iter().enumerate() {
            for alpha in [0.1, 0.3, 0.6, 0.9] {
                let want = match_bruteforce(&peg, q, alpha);
                let ctx =
                    format!("graph(n={n_refs},u={uncertainty},seed={seed}) L={l} q#{qi} α={alpha}");
                let got = pipe.run(q, alpha, &QueryOptions::default()).unwrap();
                assert_same(&got.matches, &want, &ctx);
            }
        }
    }
}

#[test]
fn low_uncertainty_graphs() {
    check_graph(150, 0.2, 1);
    check_graph(220, 0.2, 2);
}

#[test]
fn high_uncertainty_graphs() {
    check_graph(150, 0.8, 3);
    check_graph(200, 1.0, 4);
}

#[test]
fn medium_uncertainty_graphs() {
    check_graph(180, 0.5, 5);
    check_graph(260, 0.4, 6);
}

#[test]
fn baselines_equal_optimized_on_random_graphs() {
    let refs = synthetic_refgraph(&SyntheticConfig::paper_with_uncertainty(200, 0.5));
    let peg = PegBuilder::new().build(&refs).unwrap();
    let idx = OfflineIndex::build(
        &peg,
        &OfflineOptions { index: PathIndexConfig { max_len: 3, beta: 0.2, ..Default::default() } },
    )
    .unwrap();
    let pipe = QueryPipeline::new(&peg, &idx);
    for qseed in 0..4u64 {
        let q = match sampled_query(&peg.graph, QuerySpec::new(5, 6), qseed) {
            Some(q) => q,
            None => continue,
        };
        let reference = match_bruteforce(&peg, &q, 0.25);
        for (name, opts) in [
            ("optimized", QueryOptions::default()),
            ("random-decomp", QueryOptions::random_decomposition(qseed)),
            ("no-reduction", QueryOptions::no_reduction()),
            ("no-upperbounds", QueryOptions { use_upperbounds: false, ..Default::default() }),
            ("parallel", QueryOptions::with_threads(2)),
        ] {
            let got = pipe.run(&q, 0.25, &opts).unwrap();
            assert_same(&got.matches, &reference, &format!("{name} q#{qseed}"));
        }
    }
}

#[test]
fn alpha_below_beta_uses_on_demand_enumeration() {
    let refs = synthetic_refgraph(&SyntheticConfig::paper_with_uncertainty(120, 0.6));
    let peg = PegBuilder::new().build(&refs).unwrap();
    // β = 0.7 is far above the query threshold 0.05.
    let idx = OfflineIndex::build(
        &peg,
        &OfflineOptions { index: PathIndexConfig { max_len: 2, beta: 0.7, ..Default::default() } },
    )
    .unwrap();
    let pipe = QueryPipeline::new(&peg, &idx);
    for qseed in 0..3u64 {
        if let Some(q) = sampled_query(&peg.graph, QuerySpec::new(4, 4), qseed) {
            let want = match_bruteforce(&peg, &q, 0.05);
            let got = pipe.run(&q, 0.05, &QueryOptions::default()).unwrap();
            assert_same(&got.matches, &want, &format!("on-demand q#{qseed}"));
        }
    }
}
