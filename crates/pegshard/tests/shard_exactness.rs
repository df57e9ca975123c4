//! The tentpole guarantee: sharded execution is f64-bit-exact against the
//! unsharded pipeline for every shard count.

use graphstore::{Label, RefGraph};
use pegmatch::model::peg::{figure1_refgraph, PegBuilder};
use pegmatch::model::Peg;
use pegmatch::offline::{OfflineIndex, OfflineOptions};
use pegmatch::online::{CandidateSource, QueryOptions, QueryPipeline, QueryResult};
use pegmatch::query::QueryGraph;
use pegshard::{ScatterStats, ShardedGraphStore};
use pegtrace::Tracer;

fn synthetic_peg(n_refs: usize, uncertainty: f64) -> (RefGraph, Peg) {
    let refs = datagen::synthetic_refgraph(&datagen::SyntheticConfig::paper_with_uncertainty(
        n_refs,
        uncertainty,
    ));
    let peg = PegBuilder::new().build(&refs).unwrap();
    (refs, peg)
}

fn assert_bit_identical(a: &QueryResult, b: &QueryResult, ctx: &str) {
    assert_eq!(a.matches.len(), b.matches.len(), "{ctx}: match count");
    for (x, y) in a.matches.iter().zip(&b.matches) {
        assert_eq!(x.nodes, y.nodes, "{ctx}: nodes");
        assert_eq!(x.prle.to_bits(), y.prle.to_bits(), "{ctx}: prle bits");
        assert_eq!(x.prn.to_bits(), y.prn.to_bits(), "{ctx}: prn bits");
    }
    assert_eq!(a.truncated, b.truncated, "{ctx}: truncated");
}

#[test]
fn figure1_sharded_matches_unsharded_bitwise() {
    let refs = figure1_refgraph();
    let peg = PegBuilder::new().build(&refs).unwrap();
    let opts = OfflineOptions::with_len_and_beta(2, 0.01);
    let offline = OfflineIndex::build(&peg, &opts).unwrap();
    let plain = QueryPipeline::new(&peg, &offline);
    let (a, r, i) = (Label(0), Label(1), Label(2));
    let q = QueryGraph::path(&[r, a, i]).unwrap();
    for shards in 1..=4 {
        let store = ShardedGraphStore::build(&refs, peg.clone(), &opts, shards).unwrap();
        let pipe = store.pipeline();
        for alpha in [0.01, 0.05, 0.2, 0.5] {
            let want = plain.run(&q, alpha, &QueryOptions::default()).unwrap();
            let got = pipe.run(&q, alpha, &QueryOptions::default()).unwrap();
            assert_bit_identical(&got, &want, &format!("shards={shards} alpha={alpha}"));
            assert_eq!(got.stats.raw_counts, want.stats.raw_counts, "raw counts agree");
        }
    }
}

#[test]
fn synthetic_sharded_matches_unsharded_across_queries_and_threads() {
    let (refs, peg) = synthetic_peg(300, 0.3);
    let opts = OfflineOptions::with_len_and_beta(2, 0.1);
    let offline = OfflineIndex::build(&peg, &opts).unwrap();
    let plain = QueryPipeline::new(&peg, &offline);
    let n_labels = peg.graph.label_table().len() as u16;
    let queries: Vec<QueryGraph> = vec![
        QueryGraph::path(&[Label(0), Label(1)]).unwrap(),
        QueryGraph::path(&[Label(0), Label(1), Label(0)]).unwrap(),
        QueryGraph::path(&[Label(1 % n_labels), Label(2 % n_labels), Label(0)]).unwrap(),
        QueryGraph::star(Label(0), &[Label(1), Label(1)]).unwrap(),
        QueryGraph::cycle(&[Label(0), Label(1), Label(2 % n_labels)]).unwrap(),
        QueryGraph::new(vec![Label(0)], vec![]).unwrap(),
    ];
    for shards in [1usize, 2, 3, 4] {
        let store = ShardedGraphStore::build(&refs, peg.clone(), &opts, shards).unwrap();
        let pipe = store.pipeline();
        for (qi, q) in queries.iter().enumerate() {
            for threads in [1usize, 0] {
                let qopts = QueryOptions::with_threads(threads);
                for alpha in [0.05, 0.15, 0.4] {
                    let want = plain.run(q, alpha, &qopts).unwrap();
                    let got = pipe.run(q, alpha, &qopts).unwrap();
                    assert_bit_identical(
                        &got,
                        &want,
                        &format!("q{qi} shards={shards} threads={threads} alpha={alpha}"),
                    );
                }
                let want = plain.run_topk(q, 7, 1e-6, &qopts).unwrap();
                let got = pipe.run_topk(q, 7, 1e-6, &qopts).unwrap();
                assert_bit_identical(
                    &got,
                    &want,
                    &format!("topk q{qi} shards={shards} threads={threads}"),
                );
            }
        }
    }
}

#[test]
fn below_beta_enumeration_fallback_is_exact_too() {
    // α below the index's β exercises the on-demand enumeration path in
    // every shard; the gather must still reproduce the unsharded lists.
    let (refs, peg) = synthetic_peg(200, 0.3);
    let opts = OfflineOptions::with_len_and_beta(2, 0.3);
    let offline = OfflineIndex::build(&peg, &opts).unwrap();
    let plain = QueryPipeline::new(&peg, &offline);
    let q = QueryGraph::path(&[Label(0), Label(1), Label(0)]).unwrap();
    for shards in [2usize, 3] {
        let store = ShardedGraphStore::build(&refs, peg.clone(), &opts, shards).unwrap();
        let pipe = store.pipeline();
        for alpha in [0.02, 0.1] {
            let want = plain.run(&q, alpha, &QueryOptions::default()).unwrap();
            let got = pipe.run(&q, alpha, &QueryOptions::default()).unwrap();
            assert_bit_identical(&got, &want, &format!("shards={shards} alpha={alpha}"));
        }
    }
}

#[test]
fn planner_estimates_are_bit_identical() {
    let (refs, peg) = synthetic_peg(250, 0.2);
    let opts = OfflineOptions::with_len_and_beta(2, 0.1);
    let offline = OfflineIndex::build(&peg, &opts).unwrap();
    let n_labels = peg.graph.label_table().len() as u16;
    for shards in 1..=4 {
        let store = ShardedGraphStore::build(&refs, peg.clone(), &opts, shards).unwrap();
        for a in 0..n_labels {
            for b in 0..n_labels {
                for alpha in [0.05, 0.12, 0.3, 0.77] {
                    for labels in [
                        vec![Label(a)],
                        vec![Label(a), Label(b)],
                        vec![Label(a), Label(b), Label(a)],
                    ] {
                        let want = offline.estimate_path_count(&labels, alpha);
                        let got = store.estimate_path_count(&labels, alpha);
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "labels={labels:?} alpha={alpha} shards={shards}: {got} vs {want}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn scatter_stats_report_replication_and_dedup() {
    let (refs, peg) = synthetic_peg(300, 0.3);
    let n_nodes = peg.graph.n_nodes();
    let opts = OfflineOptions::with_len_and_beta(2, 0.1);
    let store = ShardedGraphStore::build(&refs, peg, &opts, 3).unwrap();

    let stats = store.stats();
    assert_eq!(stats.n_shards, 3);
    assert_eq!(stats.halo_radius, 3, "max_len 2 → halo 3");
    assert_eq!(stats.per_shard.iter().map(|s| s.owned_nodes).sum::<usize>(), n_nodes);
    assert!(stats.replication_factor >= 1.0);
    assert_eq!(
        stats.replicated_nodes,
        stats.per_shard.iter().map(|s| s.nodes).sum::<usize>() - n_nodes
    );

    // The scatter's one record is its traced `retrieve` span.
    let q = QueryGraph::path(&[Label(0), Label(1)]).unwrap();
    let pipe = store.pipeline();
    let opts = QueryOptions::default();
    let prepared = pipe.prepare(&q, 0.05, &opts).unwrap();
    let mut session = pipe.session(&prepared, &opts);
    let tracer = Tracer::enabled(1);
    session.set_tracer(tracer.clone());
    let res = session.run_at(0.05, None).unwrap();
    let roots = tracer.take();
    let retrieve = roots.iter().find_map(|r| r.find("retrieve")).expect("a retrieve span");
    let scatter = ScatterStats::from_span(retrieve).expect("the sharded store tagged it");
    assert_eq!(scatter.per_shard_raw.len(), 3);
    assert_eq!(scatter.raw_distinct, res.stats.raw_counts.iter().sum::<usize>());
    // On a connected-ish synthetic graph, 3-way sharding replicates
    // boundary paths: shards retrieve more raw copies than distinct paths,
    // and the gather drops the surviving duplicates.
    assert!(
        scatter.per_shard_raw.iter().sum::<usize>() >= scatter.raw_distinct,
        "replicas can only add"
    );
    assert_eq!(
        scatter.per_shard_pruned.iter().sum::<usize>() - scatter.duplicates_dropped,
        scatter.pruned_distinct
    );
    assert!(scatter.duplicates_dropped > 0, "expected boundary-replicated candidates");
}

#[test]
fn single_shard_store_has_no_replication() {
    let (refs, peg) = synthetic_peg(200, 0.2);
    let n_nodes = peg.graph.n_nodes();
    let opts = OfflineOptions::with_len_and_beta(2, 0.1);
    let store = ShardedGraphStore::build(&refs, peg, &opts, 1).unwrap();
    assert_eq!(store.stats().replicated_nodes, 0);
    assert_eq!(store.stats().per_shard[0].nodes, n_nodes);
    assert!((store.stats().replication_factor - 1.0).abs() < 1e-12);
}

#[test]
fn zero_shards_rejected() {
    let refs = figure1_refgraph();
    let peg = PegBuilder::new().build(&refs).unwrap();
    let opts = OfflineOptions::with_len_and_beta(2, 0.01);
    assert!(ShardedGraphStore::build(&refs, peg, &opts, 0).is_err());
}

#[test]
fn more_shards_than_nodes_still_exact() {
    let refs = figure1_refgraph();
    let peg = PegBuilder::new().build(&refs).unwrap();
    let opts = OfflineOptions::with_len_and_beta(2, 0.01);
    let offline = OfflineIndex::build(&peg, &opts).unwrap();
    let plain = QueryPipeline::new(&peg, &offline);
    let q = QueryGraph::path(&[Label(1), Label(0), Label(2)]).unwrap();
    // Figure 1 has 5 nodes; 8 shards leaves some shards empty.
    let store = ShardedGraphStore::build(&refs, peg.clone(), &opts, 8).unwrap();
    let want = plain.run(&q, 0.05, &QueryOptions::default()).unwrap();
    let got = store.pipeline().run(&q, 0.05, &QueryOptions::default()).unwrap();
    assert_bit_identical(&got, &want, "8 shards over 5 nodes");
}
