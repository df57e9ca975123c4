//! Property test: execution-cache hits are invisible in the results.
//!
//! A pipeline with an [`ExecCache`] attached answers every query —
//! `run`, `run_limited`, `run_topk`, across repeated shapes, isomorphic
//! renumberings, alpha ladders that revisit a quantization bucket from
//! both sides, shard counts 1..=3, and sequential vs. pooled execution —
//! **bit-identically** to a cold cache-free session over the same store.
//! This is the soundness gate for the floor-threshold design: a hit
//! re-prunes cached floor-retrieval candidate lists at the request's
//! alpha, and that filtered list must equal a fresh retrieval's output
//! down to every f64 bit.

use datagen::{permuted_query, random_query, synthetic_refgraph, QuerySpec, SyntheticConfig};
use pathindex::PathIndexConfig;
use pegmatch::matcher::Match;
use pegmatch::model::PegBuilder;
use pegmatch::offline::{OfflineIndex, OfflineOptions};
use pegmatch::online::{ExecCache, QueryOptions, QueryPipeline};
use pegshard::ShardedGraphStore;
use proptest::prelude::*;
use std::sync::Arc;

fn assert_bit_identical(got: &[Match], want: &[Match]) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "match-set sizes differ");
    for (x, y) in got.iter().zip(want) {
        prop_assert_eq!(&x.nodes, &y.nodes);
        prop_assert_eq!(x.prle.to_bits(), y.prle.to_bits(), "prle bits differ");
        prop_assert_eq!(x.prn.to_bits(), y.prn.to_bits(), "prn bits differ");
    }
    Ok(())
}

proptest! {
    // Each case builds a graph, an index, and possibly a sharded store —
    // keep the count small; the inner loops cover the real cross-product.
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn warm_hits_equal_cold_sessions_bit_for_bit(
        n_refs in 50usize..110,
        uncertainty in prop::sample::select(vec![0.2, 0.6]),
        n_shards in 1usize..=3,
        threads in prop::sample::select(vec![1usize, 0]),
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
            index: PathIndexConfig { max_len: 2, beta: 0.2, ..Default::default() },
        };
        // One store, two pipelines over it, differing ONLY in the
        // execution cache. No plan caches needed: planning is always
        // canonical-numbered, so a cached-plan pipeline and a plan-fresh
        // one execute byte-identical plans (and identical `run_limited`
        // truncation prefixes) by construction.
        let offline;
        let sharded;
        let (warm_base, cold_base): (QueryPipeline<'_>, QueryPipeline<'_>) = if n_shards > 1 {
            sharded = ShardedGraphStore::build(&refs, peg.clone(), &opts, n_shards).unwrap();
            (sharded.pipeline(), sharded.pipeline())
        } else {
            offline = OfflineIndex::build(&peg, &opts).unwrap();
            (QueryPipeline::new(&peg, &offline), QueryPipeline::new(&peg, &offline))
        };
        let exec = Arc::new(ExecCache::new(8 << 20));
        let warm = warm_base.with_exec_cache(exec.clone(), exec.next_epoch());
        let cold = cold_base;

        let base = random_query(QuerySpec::new(4, 4), n_labels, seed);
        let renumbered = permuted_query(&base, seed.wrapping_mul(31) + 7);
        let run_opts = QueryOptions { threads, ..Default::default() };
        // The ladder revisits quantization buckets from both sides:
        // 0.35 shares 0.3's floored key (a hit at a *different* alpha
        // than the insert), 0.06 shares 0.05's below-beta bucket, and
        // 0.7 starts a fresh bucket after the dips.
        for alpha in [0.3, 0.35, 0.05, 0.06, 0.7] {
            for q in [&base, &renumbered] {
                let w = warm.run(q, alpha, &run_opts).unwrap();
                let c = cold.run(q, alpha, &run_opts).unwrap();
                assert_bit_identical(&w.matches, &c.matches)?;
                prop_assert_eq!(w.truncated, c.truncated);

                let cap = c.matches.len() / 2;
                let wl = warm.run_limited(q, alpha, Some(cap), &run_opts).unwrap();
                let cl = cold.run_limited(q, alpha, Some(cap), &run_opts).unwrap();
                prop_assert_eq!(wl.truncated, cl.truncated, "cap {} truncation", cap);
                assert_bit_identical(&wl.matches, &cl.matches)?;
            }
        }
        // Top-k walks its own descending alpha ladder internally — every
        // step goes through the same cached-retrieval seam.
        let wk = warm.run_topk(&base, 3, 1e-6, &run_opts).unwrap();
        let ck = cold.run_topk(&base, 3, 1e-6, &run_opts).unwrap();
        assert_bit_identical(&wk.matches, &ck.matches)?;

        let s = exec.stats();
        prop_assert!(s.hits > 0, "the ladder must actually hit the cache: {:?}", s);
    }
}
