//! Live-update exactness: a mutated sharded store answers bit-for-bit
//! like a store freshly built over the mutated reference network — for
//! every shard count, with unaffected shards reused, and with the
//! worker-side (`shard_update`) path agreeing with fresh worker builds.

use graphstore::{GraphOp, Label, RefGraph, RefId};
use pegmatch::model::peg::PegBuilder;
use pegmatch::offline::OfflineOptions;
use pegmatch::online::{CandidateSource, QueryOptions, QueryResult};
use pegmatch::query::QueryGraph;
use pegshard::{ShardedGraphStore, WorkerShard};

fn synthetic_refs(n_refs: usize, uncertainty: f64) -> RefGraph {
    datagen::synthetic_refgraph(&datagen::SyntheticConfig::paper_with_uncertainty(
        n_refs,
        uncertainty,
    ))
}

/// Three batches exercising every op family, applied in sequence (each
/// one's input network is the previous one's output).
fn mutation_batches() -> Vec<Vec<GraphOp>> {
    vec![
        vec![
            GraphOp::UpsertRef { r: None, labels: vec![(0, 0.9), (1, 0.1)] },
            GraphOp::UpsertEdge { a: RefId(3), b: RefId(11), p: 0.8 },
            GraphOp::UpsertEdge { a: RefId(20), b: RefId(40), p: 0.35 },
            GraphOp::SetSingletonWeight { r: RefId(7), weight: 0.5 },
        ],
        vec![
            GraphOp::DeleteEdge { a: RefId(20), b: RefId(40) },
            GraphOp::UpsertRef { r: Some(RefId(5)), labels: vec![(2, 1.0)] },
            GraphOp::PairPosterior { a: RefId(12), b: RefId(13), q: 0.6 },
        ],
        vec![
            GraphOp::DeleteRef { r: RefId(9) },
            GraphOp::UpsertEdge { a: RefId(30), b: RefId(31), p: 0.45 },
            GraphOp::UpsertSet { members: vec![RefId(50), RefId(51)], weight: 0.25 },
        ],
    ]
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
fn store_update_matches_fresh_build_bitwise() {
    let builder = PegBuilder::new();
    let opts = OfflineOptions::with_len_and_beta(2, 0.05);
    let refs0 = synthetic_refs(200, 0.3);
    let queries = [
        QueryGraph::path(&[Label(1), Label(0), Label(2)]).unwrap(),
        QueryGraph::path(&[Label(0), Label(1)]).unwrap(),
    ];

    for shards in 1..=3 {
        let peg = builder.build(&refs0).unwrap();
        let mut store = ShardedGraphStore::build(&refs0, peg, &opts, shards).unwrap();
        let mut refs = refs0.clone();
        for (i, ops) in mutation_batches().iter().enumerate() {
            let (next, next_refs, update) = store.apply_update(&refs, &builder, ops).unwrap();
            // The reused/rebuilt split must cover the partition.
            assert!(update.rebuilt_shards <= shards, "batch {i}");
            assert!(update.n_dirty > 0, "batch {i}: mutation must dirty something");
            store = next;
            refs = next_refs;

            // A store built from scratch over the mutated network.
            let fresh_peg = builder.build(&refs).unwrap();
            let fresh = ShardedGraphStore::build(&refs, fresh_peg, &opts, shards).unwrap();
            assert_eq!(store.peg().graph.n_nodes(), fresh.peg().graph.n_nodes());
            assert_eq!(store.peg().graph.n_edges(), fresh.peg().graph.n_edges());

            // Planner inputs agree bitwise (merged histogram re-derived
            // from reused + rebuilt shards equals a fresh merge).
            for labels in [
                vec![Label(0), Label(1)],
                vec![Label(1), Label(0), Label(2)],
                vec![Label(2), Label(2)],
            ] {
                for alpha in [0.05, 0.2] {
                    assert_eq!(
                        store.estimate_path_count(&labels, alpha).to_bits(),
                        fresh.estimate_path_count(&labels, alpha).to_bits(),
                        "batch {i} shards={shards}: estimate for {labels:?} at {alpha}"
                    );
                }
            }

            // And query results are f64-bit-exact.
            for (qi, q) in queries.iter().enumerate() {
                for alpha in [0.05, 0.2] {
                    let got = store.pipeline().run(q, alpha, &QueryOptions::default()).unwrap();
                    let want = fresh.pipeline().run(q, alpha, &QueryOptions::default()).unwrap();
                    assert_bit_identical(
                        &got,
                        &want,
                        &format!("batch {i} shards={shards} q{qi} alpha={alpha}"),
                    );
                    assert_eq!(got.stats.raw_counts, want.stats.raw_counts);
                }
            }
        }
    }
}

#[test]
fn failed_update_leaves_store_usable() {
    let builder = PegBuilder::new();
    let opts = OfflineOptions::with_len_and_beta(2, 0.05);
    let refs = synthetic_refs(120, 0.3);
    let peg = builder.build(&refs).unwrap();
    let store = ShardedGraphStore::build(&refs, peg, &opts, 2).unwrap();
    let q = QueryGraph::path(&[Label(1), Label(0)]).unwrap();
    let before = store.pipeline().run(&q, 0.05, &QueryOptions::default()).unwrap();

    let bad = vec![
        GraphOp::UpsertEdge { a: RefId(0), b: RefId(1), p: 0.5 },
        GraphOp::DeleteRef { r: RefId(9999) },
    ];
    let err = match store.apply_update(&refs, &builder, &bad) {
        Err(e) => e,
        Ok(_) => panic!("invalid batch must fail"),
    };
    assert!(format!("{err}").contains("op 1"), "{err}");
    let after = store.pipeline().run(&q, 0.05, &QueryOptions::default()).unwrap();
    assert_bit_identical(&after, &before, "store unchanged after failed batch");
}

#[test]
fn worker_update_matches_fresh_build_and_versions() {
    use pegmatch::online::QueryPath;

    let builder = PegBuilder::new();
    let opts = OfflineOptions::with_len_and_beta(2, 0.05);
    let refs0 = synthetic_refs(150, 0.3);
    let n_shards = 2;
    let pool = &*pegpool::global();
    let q = QueryGraph::path(&[Label(1), Label(0), Label(2)]).unwrap();
    let paths = [QueryPath { nodes: vec![0, 1, 2] }];

    for shard in 0..n_shards {
        let peg = builder.build(&refs0).unwrap();
        let ws = WorkerShard::build(refs0.clone(), peg, &opts, shard, n_shards).unwrap();
        assert_eq!(ws.version(), 0);

        let batches = mutation_batches();
        // Version discipline: gaps rejected, nothing applied.
        let gap = ws.apply_update(&batches[0], 2).unwrap_err();
        assert!(format!("{gap}").contains("out of sequence"), "{gap}");

        let up1 = ws.apply_update(&batches[0], 1).unwrap();
        assert_eq!(up1.version, 1);
        assert_eq!(ws.version(), 1);

        // Idempotent resend of the already-latest version: acknowledged,
        // nothing recomputed.
        let resend = ws.apply_update(&batches[0], 1).unwrap();
        assert_eq!(resend.version, 1);
        assert_eq!(resend.n_dirty, 0);
        assert!(!resend.rebuilt);
        assert_eq!(resend.full_nodes, up1.full_nodes);

        // The mutated worker answers like a worker built fresh from the
        // mutated network.
        let mut refs1 = refs0.clone();
        refs1.apply_all(&batches[0]).unwrap();
        let fresh_peg = builder.build(&refs1).unwrap();
        assert_eq!(up1.full_nodes, fresh_peg.graph.n_nodes());
        assert_eq!(up1.full_edges, fresh_peg.graph.n_edges());
        let fresh = WorkerShard::build(refs1.clone(), fresh_peg, &opts, shard, n_shards).unwrap();
        for alpha in [0.05, 0.2] {
            let got = ws.retrieve(&q, &paths, alpha, None, pool).unwrap();
            let want = fresh.retrieve(&q, &paths, alpha, None, pool).unwrap();
            assert_eq!(got.paths.len(), want.paths.len());
            for (g, w) in got.paths.iter().zip(&want.paths) {
                assert_eq!(g.raw_total, w.raw_total);
                assert_eq!(g.raw_home, w.raw_home);
                assert_eq!(g.pruned_total, w.pruned_total);
                assert_eq!(g.matches.len(), w.matches.len());
                for (x, y) in g.matches.iter().zip(&w.matches) {
                    assert_eq!(x.nodes, y.nodes);
                    assert_eq!(x.prle.to_bits(), y.prle.to_bits());
                    assert_eq!(x.prn.to_bits(), y.prn.to_bits());
                }
            }
        }
        // Histograms agree entry-for-entry too (planner inputs).
        assert_eq!(ws.histogram(), fresh.histogram());

        // The pre-update snapshot stays retrievable (one version back)...
        ws.retrieve(&q, &paths, 0.05, Some(0), pool).unwrap();
        // ...an unknown version is a structured error...
        assert!(ws.retrieve(&q, &paths, 0.05, Some(7), pool).is_err());
        // ...and a second update evicts version 0.
        ws.apply_update(&batches[1], 2).unwrap();
        assert!(ws.retrieve(&q, &paths, 0.05, Some(0), pool).is_err());
        ws.retrieve(&q, &paths, 0.05, Some(1), pool).unwrap();
        ws.retrieve(&q, &paths, 0.05, Some(2), pool).unwrap();
    }
}
