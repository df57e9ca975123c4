//! Property test for the live-mutation tentpole: applying a random
//! mutation sequence incrementally (`pegmatch::live::apply_ops` /
//! `ShardedGraphStore::apply_update`) answers every query **f64-bit-
//! identically** to rebuilding the mutated reference network from
//! scratch — across shard counts, thread counts, and `run` /
//! `run_limited` / `run_topk` — and the epoch-stamped execution cache
//! never serves a pre-mutation retrieval after the mutation (the
//! post-mutation query must miss, asserted in cache stats).

use datagen::{random_query, synthetic_refgraph, QuerySpec, SyntheticConfig};
use graphstore::{GraphOp, RefGraph, RefId};
use pathindex::PathIndexConfig;
use pegmatch::matcher::Match;
use pegmatch::model::PegBuilder;
use pegmatch::offline::{OfflineIndex, OfflineOptions};
use pegmatch::online::{ExecCache, PlanCache, QueryOptions, QueryPipeline};
use pegshard::ShardedGraphStore;
use proptest::prelude::*;
use std::sync::Arc;

/// SplitMix64 — a tiny deterministic generator for op drawing, so a
/// failing case reproduces from its seed alone.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A probability comfortably inside (0, 1).
    fn prob(&mut self) -> f64 {
        0.05 + 0.9 * (self.next() % 1000) as f64 / 1000.0
    }
}

/// Draws `n` ops, each valid against the network state the preceding
/// ops produce: references are drawn from the live set, deletions only
/// target edges this sequence added (pre-existing edges may legally be
/// upserted over), and sets/pairs use distinct live members.
fn random_ops(refs: &RefGraph, rng: &mut Rng, n: usize) -> Vec<GraphOp> {
    let mut alive: Vec<u32> =
        (0..refs.n_refs() as u32).filter(|&i| refs.ref_is_alive(RefId(i))).collect();
    let n_labels = refs.label_table().len();
    let mut added_edges: Vec<(u32, u32)> = Vec::new();
    let mut ops = Vec::with_capacity(n);
    while ops.len() < n {
        let op = match rng.below(8) {
            0 => GraphOp::UpsertRef {
                r: None,
                labels: vec![(rng.below(n_labels) as u16, rng.prob())],
            },
            1 => {
                let r = alive[rng.below(alive.len())];
                GraphOp::UpsertRef {
                    r: Some(RefId(r)),
                    labels: vec![(rng.below(n_labels) as u16, rng.prob())],
                }
            }
            2 if alive.len() > 8 => {
                let r = alive.swap_remove(rng.below(alive.len()));
                added_edges.retain(|&(a, b)| a != r && b != r);
                GraphOp::DeleteRef { r: RefId(r) }
            }
            3 => {
                let a = alive[rng.below(alive.len())];
                let b = alive[rng.below(alive.len())];
                if a == b {
                    continue;
                }
                let key = (a.min(b), a.max(b));
                if !added_edges.contains(&key) {
                    added_edges.push(key);
                }
                GraphOp::UpsertEdge { a: RefId(a), b: RefId(b), p: rng.prob() }
            }
            4 if !added_edges.is_empty() => {
                let (a, b) = added_edges.swap_remove(rng.below(added_edges.len()));
                GraphOp::DeleteEdge { a: RefId(a), b: RefId(b) }
            }
            5 => {
                let r = alive[rng.below(alive.len())];
                GraphOp::SetSingletonWeight { r: RefId(r), weight: rng.prob() }
            }
            6 => {
                let a = alive[rng.below(alive.len())];
                let b = alive[rng.below(alive.len())];
                if a == b {
                    continue;
                }
                GraphOp::PairPosterior { a: RefId(a), b: RefId(b), q: rng.prob() }
            }
            _ => {
                let a = alive[rng.below(alive.len())];
                let b = alive[rng.below(alive.len())];
                let c = alive[rng.below(alive.len())];
                if a == b || b == c || a == c {
                    continue;
                }
                GraphOp::UpsertSet {
                    members: vec![RefId(a), RefId(b), RefId(c)],
                    weight: rng.prob(),
                }
            }
        };
        ops.push(op);
    }
    ops
}

fn assert_bit_identical(got: &[Match], want: &[Match], ctx: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "{}: match count", ctx);
    for (x, y) in got.iter().zip(want) {
        prop_assert_eq!(&x.nodes, &y.nodes, "{}: node images", ctx);
        prop_assert_eq!(x.prle.to_bits(), y.prle.to_bits(), "{}: prle bits", ctx);
        prop_assert_eq!(x.prn.to_bits(), y.prn.to_bits(), "{}: prn bits", ctx);
    }
    Ok(())
}

proptest! {
    // Each case compiles several graphs; a moderate count keeps the suite
    // within tier-1 budget while still sweeping ops × shards × threads.
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn mutate_then_query_equals_rebuild_then_query(
        n_refs in 60usize..120,
        shards in 1usize..=3,
        threads in prop::sample::select(vec![1usize, 0]),
        alpha in prop::sample::select(vec![0.05, 0.2]),
        seed in 0u64..1_000_000,
    ) {
        let cfg = SyntheticConfig { seed, ..SyntheticConfig::paper_with_uncertainty(n_refs, 0.3) };
        let refs0 = synthetic_refgraph(&cfg);
        let builder = PegBuilder::new();
        let opts = OfflineOptions {
            index: PathIndexConfig { max_len: 2, beta: 0.05, ..Default::default() },
        };
        let run_opts = QueryOptions { threads, ..Default::default() };
        let n_labels = refs0.label_table().len();
        let query = random_query(QuerySpec::new(3, 3), n_labels, seed);

        // Shared caches with the pre-mutation generation warmed: the
        // mutated generation must re-retrieve, never reuse.
        let exec = Arc::new(ExecCache::new(8 << 20));
        let epoch0 = exec.next_epoch();

        // Two chained mutation batches: batch 2 applies to batch 1's
        // output, so the incremental path is exercised on an already-
        // incrementally-built generation.
        let mut rng = Rng(seed ^ 0xfeed);
        let mut refs = refs0.clone();
        let peg0 = builder.build(&refs0).unwrap();

        if shards == 1 {
            let index0 = OfflineIndex::build(&peg0, &opts).unwrap();
            // Warm the caches on the pre-mutation graph.
            let pipe0 = QueryPipeline::new(&peg0, &index0)
                .with_plan_cache(Arc::new(PlanCache::new()))
                .with_exec_cache(exec.clone(), epoch0);
            // A first sight, the admission, then a hit.
            for _ in 0..3 {
                pipe0.run(&query, alpha, &run_opts).unwrap();
            }
            let warm_hits = exec.stats().hits;
            prop_assert!(warm_hits > 0, "third pre-mutation run must hit");

            let (mut peg, mut index) = (peg0, index0);
            for batch in 0..2 {
                let ops = random_ops(&refs, &mut rng, 4);
                let up = pegmatch::live::apply_ops(&builder, &opts, &refs, &peg, &index, &ops)
                    .unwrap();
                refs = up.refs.clone();
                (peg, index) = (up.peg, up.index);

                // Fresh rebuild over the same mutated network.
                let fresh_peg = builder.build(&refs).unwrap();
                let fresh_index = OfflineIndex::build(&fresh_peg, &opts).unwrap();
                prop_assert_eq!(peg.graph.n_nodes(), fresh_peg.graph.n_nodes());
                prop_assert_eq!(peg.graph.n_edges(), fresh_peg.graph.n_edges());
                let fresh = QueryPipeline::new(&fresh_peg, &fresh_index);

                // The mutated generation gets a fresh epoch; the old one
                // is retired exactly as the serving layer does it.
                let epoch = exec.next_epoch();
                exec.invalidate_epoch(epoch0);
                let pipe = QueryPipeline::new(&peg, &index)
                    .with_plan_cache(Arc::new(PlanCache::new()))
                    .with_exec_cache(exec.clone(), epoch);

                let (hits_before, misses_before) = {
                    let s = exec.stats();
                    (s.hits, s.misses)
                };
                let got = pipe.run(&query, alpha, &run_opts).unwrap();
                let s = exec.stats();
                prop_assert_eq!(
                    s.hits, hits_before,
                    "batch {}: post-mutation query must not hit a pre-mutation entry", batch
                );
                prop_assert!(s.misses > misses_before, "batch {}: must miss", batch);

                let want = fresh.run(&query, alpha, &run_opts).unwrap();
                assert_bit_identical(&got.matches, &want.matches, "run")?;
                prop_assert_eq!(got.truncated, want.truncated);

                // Warm equals cold equals rebuild, bit for bit.
                let rerun = pipe.run(&query, alpha, &run_opts).unwrap();
                prop_assert!(exec.stats().hits > hits_before, "batch {}: rerun must hit", batch);
                assert_bit_identical(&rerun.matches, &want.matches, "warm rerun")?;

                let cap = want.matches.len() / 2;
                let got = pipe.run_limited(&query, alpha, Some(cap), &run_opts).unwrap();
                let want_l = fresh.run_limited(&query, alpha, Some(cap), &run_opts).unwrap();
                assert_bit_identical(&got.matches, &want_l.matches, "run_limited")?;
                prop_assert_eq!(got.truncated, want_l.truncated);

                let got = pipe.run_topk(&query, 3, 1e-6, &run_opts).unwrap();
                let want_k = fresh.run_topk(&query, 3, 1e-6, &run_opts).unwrap();
                assert_bit_identical(&got.matches, &want_k.matches, "run_topk")?;
            }
        } else {
            let mut store = ShardedGraphStore::build(peg0, &opts, shards).unwrap();
            let pipe0 = store
                .pipeline()
                .with_plan_cache(Arc::new(PlanCache::new()))
                .with_exec_cache(exec.clone(), epoch0);
            for _ in 0..3 {
                pipe0.run(&query, alpha, &run_opts).unwrap();
            }
            prop_assert!(exec.stats().hits > 0, "third pre-mutation run must hit");
            drop(pipe0);

            for batch in 0..2 {
                let ops = random_ops(&refs, &mut rng, 4);
                let (next, next_refs, update) = store.apply_update(&refs, &builder, &ops).unwrap();
                prop_assert!(update.rebuilt_shards <= shards);
                store = next;
                refs = next_refs;

                let fresh_peg = builder.build(&refs).unwrap();
                let fresh_store = ShardedGraphStore::build(fresh_peg, &opts, shards).unwrap();
                let fresh = fresh_store.pipeline();

                let epoch = exec.next_epoch();
                exec.invalidate_epoch(epoch0);
                let pipe = store
                    .pipeline()
                    .with_plan_cache(Arc::new(PlanCache::new()))
                    .with_exec_cache(exec.clone(), epoch);

                let (hits_before, misses_before) = {
                    let s = exec.stats();
                    (s.hits, s.misses)
                };
                let got = pipe.run(&query, alpha, &run_opts).unwrap();
                let s = exec.stats();
                prop_assert_eq!(
                    s.hits, hits_before,
                    "batch {} shards {}: post-mutation query must not hit", batch, shards
                );
                prop_assert!(s.misses > misses_before);

                let want = fresh.run(&query, alpha, &run_opts).unwrap();
                assert_bit_identical(&got.matches, &want.matches, "sharded run")?;
                prop_assert_eq!(got.truncated, want.truncated);

                let rerun = pipe.run(&query, alpha, &run_opts).unwrap();
                prop_assert!(exec.stats().hits > hits_before);
                assert_bit_identical(&rerun.matches, &want.matches, "sharded warm rerun")?;

                let cap = want.matches.len() / 2;
                let got = pipe.run_limited(&query, alpha, Some(cap), &run_opts).unwrap();
                let want_l = fresh.run_limited(&query, alpha, Some(cap), &run_opts).unwrap();
                assert_bit_identical(&got.matches, &want_l.matches, "sharded run_limited")?;
                prop_assert_eq!(got.truncated, want_l.truncated);

                let got = pipe.run_topk(&query, 3, 1e-6, &run_opts).unwrap();
                let want_k = fresh.run_topk(&query, 3, 1e-6, &run_opts).unwrap();
                assert_bit_identical(&got.matches, &want_k.matches, "sharded run_topk")?;
            }
        }
    }
}
