//! Property test: shard-count invariance. A `ShardedGraphStore` must be a
//! pure execution detail — `run` and `run_topk` results are f64-bit-exact
//! against the unsharded `QueryPipeline` for shards ∈ {1, 2, 3, 4} and
//! threads ∈ {1, 0} on randomly drawn graphs, queries, thresholds, and
//! index lengths. Complements `crates/pegshard/tests/shard_exactness.rs`,
//! which checks fixed configurations and the scatter statistics.

use datagen::{random_query, sampled_query, synthetic_refgraph, QuerySpec, SyntheticConfig};
use pathindex::PathIndexConfig;
use pegmatch::matcher::Match;
use pegmatch::model::PegBuilder;
use pegmatch::offline::{OfflineIndex, OfflineOptions};
use pegmatch::online::{QueryOptions, QueryPipeline};
use pegshard::ShardedGraphStore;
use proptest::prelude::*;

fn assert_bit_identical(got: &[Match], want: &[Match], ctx: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "{}: match-set sizes differ", ctx);
    for (x, y) in got.iter().zip(want) {
        prop_assert_eq!(&x.nodes, &y.nodes, "{}: nodes differ", ctx);
        prop_assert_eq!(x.prle.to_bits(), y.prle.to_bits(), "{}: prle bits differ", ctx);
        prop_assert_eq!(x.prn.to_bits(), y.prn.to_bits(), "{}: prn bits differ", ctx);
    }
    Ok(())
}

proptest! {
    // Each case builds one graph + one unsharded index + four sharded
    // stores, so keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn sharded_execution_is_shard_count_invariant(
        n_refs in 30usize..120,
        uncertainty in prop::sample::select(vec![0.2, 0.6, 1.0]),
        alpha in prop::sample::select(vec![0.05, 0.3, 0.7]),
        l in 1usize..3,
        seed in 0u64..1_000_000,
    ) {
        let cfg = SyntheticConfig {
            seed,
            ..SyntheticConfig::paper_with_uncertainty(n_refs, uncertainty)
        };
        let refs = synthetic_refgraph(&cfg);
        let peg = PegBuilder::new().build(&refs).unwrap();
        let n_labels = peg.graph.label_table().len();
        let opts = OfflineOptions {
            index: PathIndexConfig { max_len: l, beta: 0.2, ..Default::default() },
        };
        let idx = OfflineIndex::build(&peg, &opts).unwrap();
        let plain = QueryPipeline::new(&peg, &idx);

        let mut queries = vec![random_query(QuerySpec::new(4, 4), n_labels, seed)];
        if let Some(q) = sampled_query(&peg.graph, QuerySpec::new(4, 4), seed) {
            queries.push(q);
        }
        for shards in 1usize..=4 {
            let store = ShardedGraphStore::build(&refs, peg.clone(), &opts, shards).unwrap();
            let pipe = store.pipeline();
            for (qi, q) in queries.iter().enumerate() {
                for threads in [1usize, 0] {
                    let qopts = QueryOptions::with_threads(threads);
                    let ctx = format!(
                        "q{qi} shards={shards} threads={threads} α={alpha} L={l} seed={seed}"
                    );
                    let want = plain.run(q, alpha, &qopts).unwrap();
                    let got = pipe.run(q, alpha, &qopts).unwrap();
                    assert_bit_identical(&got.matches, &want.matches, &ctx)?;
                    prop_assert_eq!(&got.stats.raw_counts, &want.stats.raw_counts, "{}", &ctx);
                    prop_assert_eq!(
                        &got.stats.context_counts, &want.stats.context_counts, "{}", &ctx
                    );
                    prop_assert_eq!(
                        &got.stats.final_counts, &want.stats.final_counts, "{}", &ctx
                    );
                    prop_assert_eq!(
                        got.stats.message_rounds, want.stats.message_rounds, "{}", &ctx
                    );

                    // Incremental top-k runs the whole refinement schedule
                    // (rebases, kill-list reuse, lookahead) over the
                    // scatter-gather source.
                    let wk = plain.run_topk(q, 5, 1e-6, &qopts).unwrap();
                    let gk = pipe.run_topk(q, 5, 1e-6, &qopts).unwrap();
                    assert_bit_identical(&gk.matches, &wk.matches, &ctx)?;
                }
            }
        }
    }
}
