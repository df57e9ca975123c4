//! Every store reports a batch alike. The same batch, applied to the same
//! graph through `pegmatch::live::apply_ops`, an in-process sharded store
//! (1 and 3 shards) and a worker shard, reports the same dirty-node count;
//! every store that reports reused existence components reports the same
//! number (a worker's summary carries no component count).

use graphstore::{GraphOp, RefId};
use pegmatch::live::apply_ops;
use pegmatch::model::peg::PegBuilder;
use pegmatch::offline::{OfflineIndex, OfflineOptions};
use pegshard::{ShardedGraphStore, WorkerShard};

#[test]
fn every_store_reports_a_batch_alike() {
    let builder = PegBuilder::new();
    let opts = OfflineOptions::with_len_and_beta(2, 0.05);
    let refs =
        datagen::synthetic_refgraph(&datagen::SyntheticConfig::paper_with_uncertainty(200, 0.3));
    let peg = builder.build(&refs).unwrap();
    let index = OfflineIndex::build(&peg, &opts).unwrap();
    let batches = [
        vec![GraphOp::UpsertEdge { a: RefId(3), b: RefId(11), p: 0.8 }],
        vec![
            GraphOp::UpsertRef { r: None, labels: vec![(0, 0.9), (1, 0.1)] },
            GraphOp::SetSingletonWeight { r: RefId(7), weight: 0.5 },
            GraphOp::PairPosterior { a: RefId(12), b: RefId(13), q: 0.6 },
        ],
        vec![
            GraphOp::DeleteRef { r: RefId(9) },
            GraphOp::UpsertSet { members: vec![RefId(50), RefId(51)], weight: 0.25 },
        ],
    ];
    let mut reused_somewhere = false;
    for (b, ops) in batches.iter().enumerate() {
        let up = apply_ops(&builder, &opts, &refs, &peg, &index, ops).unwrap();
        assert!(up.n_dirty() > 0, "batch {b}: nothing dirty");
        reused_somewhere |= up.reused_components > 0;
        for n_shards in [1, 3] {
            let store = ShardedGraphStore::build(&refs, peg.clone(), &opts, n_shards).unwrap();
            let (_, _, stats) = store.apply_update(&refs, &builder, ops).unwrap();
            let ctx = format!("batch {b}, {n_shards} in-process shards");
            assert_eq!(stats.n_dirty, up.n_dirty(), "{ctx}: n_dirty");
            assert_eq!(stats.reused_components, up.reused_components, "{ctx}: reused");
        }
        for shard in 0..2 {
            let worker = WorkerShard::build(refs.clone(), peg.clone(), &opts, shard, 2).unwrap();
            let summary = worker.apply_update(ops, 1).unwrap();
            assert_eq!(summary.n_dirty, up.n_dirty(), "batch {b}, worker shard {shard}: n_dirty");
        }
    }
    assert!(reused_somewhere, "no batch carried a component over: the comparison is vacuous");
}
