//! Property test: the active-frontier reduction schedule is invisible.
//!
//! The delta-driven reduce (`use_frontier: true`, the default) re-evaluates
//! a vertex in round *r+1* only if a kill touched its links or an
//! in-neighbor's perception changed in round *r*. Because the Jacobi
//! message is a pure min/max function of those exact inputs, skipping
//! clean vertices must be **bit-exact**: same perceptions, same kill
//! sets, same round counts, same match sets as the full-sweep reference
//! mode (`use_frontier: false`) — across query shapes, alpha ladders,
//! `threads ∈ {1, 0}`, and shard counts {1, 3}. The frontier may only
//! change *how much work* gets done, never any output bit.

use datagen::{random_query, synthetic_refgraph, QuerySpec, SyntheticConfig};
use graphstore::EntityId;
use pathindex::PathIndexConfig;
use pegmatch::matcher::Match;
use pegmatch::model::PegBuilder;
use pegmatch::offline::{OfflineIndex, OfflineOptions};
use pegmatch::online::kpartite::{KPartiteGraph, KPartiteWriter, ReduceOptions};
use pegmatch::online::{QueryOptions, QueryPipeline};
use pegshard::ShardedGraphStore;
use proptest::prelude::*;

fn assert_bit_identical(got: &[Match], want: &[Match], ctx: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "{}: match-set sizes differ", ctx);
    for (x, y) in got.iter().zip(want) {
        prop_assert_eq!(&x.nodes, &y.nodes, "{}", ctx);
        prop_assert_eq!(x.prle.to_bits(), y.prle.to_bits(), "{}: prle bits differ", ctx);
        prop_assert_eq!(x.prn.to_bits(), y.prn.to_bits(), "{}: prn bits differ", ctx);
    }
    Ok(())
}

/// Frontier and full-sweep graphs must agree on every alive flag and
/// every perception bit, partition by partition.
fn assert_graphs_bit_identical(
    frontier: &KPartiteGraph,
    full: &KPartiteGraph,
    ctx: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(frontier.n_partitions(), full.n_partitions());
    prop_assert_eq!(frontier.alive_counts(), full.alive_counts(), "{}: kill sets differ", ctx);
    for pi in 0..frontier.n_partitions() {
        let (pf, pv) = (frontier.part(pi), full.part(pi));
        prop_assert_eq!(pf.n_verts(), pv.n_verts());
        for vi in 0..pf.n_verts() {
            let (vf, vv) = (pf.vert(vi), pv.vert(vi));
            prop_assert_eq!(vf.alive(), vv.alive(), "{}: p{} v{} liveness", ctx, pi, vi);
            let fb: Vec<u64> = vf.perception().iter().map(|x| x.to_bits()).collect();
            let vb: Vec<u64> = vv.perception().iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(fb, vb, "{}: p{} v{} perception bits", ctx, pi, vi);
        }
    }
    Ok(())
}

proptest! {
    // Each case builds a graph, an index, and possibly a sharded store —
    // keep the count small; the inner loops cover the real cross-product.
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn frontier_pipeline_equals_full_sweep_bit_for_bit(
        n_refs in 50usize..110,
        uncertainty in prop::sample::select(vec![0.2, 0.6]),
        n_shards in prop::sample::select(vec![1usize, 3]),
        threads in prop::sample::select(vec![1usize, 0]),
        // (L, query nodes, query edges). L = 1 cuts one partition per
        // query edge: the deepest message propagation a shape admits.
        (max_len, q_nodes, q_edges) in
            prop::sample::select(vec![(2usize, 4usize, 4usize), (1, 5, 5)]),
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
            index: PathIndexConfig { max_len, beta: 0.2, ..Default::default() },
        };
        let offline;
        let sharded;
        let pipe: QueryPipeline<'_> = if n_shards > 1 {
            sharded = ShardedGraphStore::build(&refs, peg.clone(), &opts, n_shards).unwrap();
            sharded.pipeline()
        } else {
            offline = OfflineIndex::build(&peg, &opts).unwrap();
            QueryPipeline::new(&peg, &offline)
        };
        let frontier_opts = QueryOptions { threads, ..Default::default() };
        let full_opts = QueryOptions { threads, use_frontier: false, ..Default::default() };
        prop_assert!(frontier_opts.use_frontier);

        let base = random_query(QuerySpec::new(q_nodes, q_edges), n_labels, seed);
        for alpha in [0.5, 0.3, 0.05, 0.01] {
            let f = pipe.run(&base, alpha, &frontier_opts).unwrap();
            let s = pipe.run(&base, alpha, &full_opts).unwrap();
            let ctx = format!(
                "L={max_len} q({q_nodes},{q_edges}) shards={n_shards} threads={threads} alpha={alpha}"
            );
            assert_bit_identical(&f.matches, &s.matches, &ctx)?;
            prop_assert_eq!(f.truncated, s.truncated);
            // The two schedules converge through the same rounds and kill
            // the same vertices — only the per-round eval counts differ.
            prop_assert_eq!(f.stats.message_rounds, s.stats.message_rounds, "{}", &ctx);
            prop_assert_eq!(f.stats.removed_structure, s.stats.removed_structure, "{}", &ctx);
            prop_assert_eq!(f.stats.removed_upperbound, s.stats.removed_upperbound, "{}", &ctx);
            prop_assert_eq!(&f.stats.final_counts, &s.stats.final_counts, "{}", &ctx);
            prop_assert_eq!(
                f.stats.round_frontiers.len(), s.stats.round_frontiers.len(), "{}", &ctx
            );
            // Full sweeps evaluate every alive vertex every round.
            prop_assert_eq!(s.stats.full_evals_avoided, 0, "{}", &ctx);
            prop_assert!(f.stats.frontier_evals <= s.stats.frontier_evals, "{}", &ctx);

            // A truncated run's prefix comes off the same generation
            // order in both modes.
            let cap = s.matches.len() / 2;
            let fl = pipe.run_limited(&base, alpha, Some(cap), &frontier_opts).unwrap();
            let sl = pipe.run_limited(&base, alpha, Some(cap), &full_opts).unwrap();
            prop_assert_eq!(fl.truncated, sl.truncated, "{}: cap {}", &ctx, cap);
            assert_bit_identical(&fl.matches, &sl.matches, &ctx)?;
        }
    }
}

/// Builds a random symmetric k-partite graph through the arena writer
/// `build_kpartite` itself uses: `k` partitions joined pairwise, symmetric
/// links drawn from `seed`, perceptions initialized the way the writer
/// always does (all-ones with the own entry at `w1`).
fn random_kpartite(k: usize, n_verts: usize, density: u32, seed: u64) -> KPartiteGraph {
    // Small deterministic PRNG (splitmix64) — no external deps.
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut writer = KPartiteWriter::new(k);
    for pi in 0..k {
        let joined: Vec<usize> = (0..k).filter(|&j| j != pi).collect();
        writer.add_partition(&joined, 1, n_verts);
        for vi in 0..n_verts {
            let w1 = ((next() % 900) + 100) as f64 / 1000.0;
            let w2 = ((next() % 900) + 100) as f64 / 1000.0;
            writer.add_vertex(&[EntityId((pi * n_verts + vi) as u32)], w1, w2);
        }
    }
    // Symmetric links: decide each cross-partition pair once, in the
    // ascending (vi, vj) order the writer lays both directions out from.
    for pi in 0..k {
        for pj in (pi + 1)..k {
            let mut pairs = Vec::new();
            for vi in 0..n_verts {
                for vj in 0..n_verts {
                    if next() % 100 < density as u64 {
                        pairs.push((vi as u32, vj as u32));
                    }
                }
            }
            writer.add_links(pi, pj, pairs);
        }
    }
    writer.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    // Engine-level: frontier vs full-sweep on random symmetric k-partite
    // graphs, including the alpha-monotone incremental reuse path (reduce
    // again at a higher alpha on the already-converged graph).
    #[test]
    fn frontier_reduce_is_bit_exact_on_random_graphs(
        k in 2usize..=4,
        n_verts in 1usize..=8,
        density in prop::sample::select(vec![25u32, 60, 95]),
        parallel in prop::sample::select(vec![false, true]),
        seed in 0u64..1_000_000,
    ) {
        let alphas = [0.02, 0.08, 0.2];
        let mut frontier = random_kpartite(k, n_verts, density, seed);
        let mut full = frontier.clone();
        let fopts = ReduceOptions { parallel, ..ReduceOptions::default() };
        let vopts = ReduceOptions { use_frontier: false, parallel, ..ReduceOptions::default() };
        // Ascending ladder: each reduce after the first exercises the
        // incremental path (converged graph, higher threshold).
        for (step, &alpha) in alphas.iter().enumerate() {
            let sf = frontier.reduce(alpha, &fopts);
            let sv = full.reduce(alpha, &vopts);
            let ctx = format!(
                "k={k} n={n_verts} density={density} parallel={parallel} step={step}"
            );
            prop_assert_eq!(sf.rounds, sv.rounds, "{}: rounds", &ctx);
            prop_assert_eq!(sf.removed_structure, sv.removed_structure, "{}", &ctx);
            prop_assert_eq!(sf.removed_upperbound, sv.removed_upperbound, "{}", &ctx);
            prop_assert_eq!(
                sf.round_frontiers.len(), sv.round_frontiers.len(), "{}", &ctx
            );
            for (rf, rv) in sf.round_frontiers.iter().zip(&sv.round_frontiers) {
                prop_assert_eq!(rf.alive, rv.alive, "{}: per-round alive", &ctx);
                prop_assert_eq!(rf.updates, rv.updates, "{}: per-round updates", &ctx);
                prop_assert!(rf.evals <= rv.evals, "{}: frontier larger than sweep", &ctx);
            }
            prop_assert_eq!(sv.full_evals_avoided, 0, "{}: sweep must not skip", &ctx);
            assert_graphs_bit_identical(&frontier, &full, &ctx)?;
        }
    }
}

/// The top-k threshold schedule: geometric descent from 0.5 to the floor.
fn schedule(k: usize, floor: f64, counts_at: impl Fn(f64) -> usize) -> Vec<f64> {
    let mut alphas = Vec::new();
    let mut alpha = 0.5f64;
    loop {
        alphas.push(alpha);
        if counts_at(alpha) >= k || alpha <= floor {
            return alphas;
        }
        alpha = (alpha * 0.25).max(floor);
    }
}

/// `run_topk`'s incremental refinement rides *on top of* the frontier
/// schedule: one frontier session refining alpha-monotone must match a
/// from-scratch full-sweep rebuild at every intermediate threshold, and
/// keep its round win (the 4-vs-25-style gap) while doing strictly less
/// per-round eval work.
#[test]
fn topk_incremental_over_frontier_equals_full_sweep_rebuilds() {
    let cfg = SyntheticConfig { seed: 13, ..SyntheticConfig::paper_with_uncertainty(200, 0.4) };
    let refs = synthetic_refgraph(&cfg);
    let peg = PegBuilder::new().build(&refs).unwrap();
    let n_labels = peg.graph.label_table().len();
    let idx = OfflineIndex::build(
        &peg,
        &OfflineOptions { index: PathIndexConfig { max_len: 2, beta: 0.05, ..Default::default() } },
    )
    .unwrap();
    let pipe = QueryPipeline::new(&peg, &idx);
    let (k, floor) = (40usize, 1e-7);

    for threads in [1usize, 0] {
        let frontier_opts = QueryOptions::with_threads(threads);
        let full_opts = QueryOptions { threads, use_frontier: false, ..Default::default() };
        for seed in 0..2u64 {
            let q = random_query(QuerySpec::new(4, 4), n_labels, seed);
            let prepared = pipe.prepare(&q, 0.5, &frontier_opts).unwrap();
            let alphas = schedule(k, floor, |alpha| {
                let mut s = pipe.session(&prepared, &full_opts);
                s.run_at(alpha, None).unwrap().matches.len()
            });

            let mut session = pipe.session(&prepared, &frontier_opts);
            let mut inc_refine_rounds = 0usize;
            let mut scratch_refine_rounds = 0usize;
            let mut last = None;
            for (step, &alpha) in alphas.iter().enumerate() {
                if let Some(base) = session.base_alpha() {
                    if alpha + 1e-12 < base {
                        session.rebase((alpha * 0.25).max(floor)).unwrap();
                    }
                }
                let inc = session.run_at(alpha, None).unwrap();
                let mut fresh = pipe.session(&prepared, &full_opts);
                let scratch = fresh.run_at(alpha, None).unwrap();
                let ctx = format!("threads={threads} seed={seed} alpha={alpha}");
                assert_bit_identical(&inc.matches, &scratch.matches, &ctx).unwrap();
                if step > 0 {
                    assert!(inc.stats.base_reused, "{ctx}: refinements must reuse the base");
                    inc_refine_rounds += inc.stats.message_rounds;
                    scratch_refine_rounds += scratch.stats.message_rounds;
                }
                last = Some(inc);
            }
            if alphas.len() >= 3 {
                // The alpha-monotone round win must survive frontier
                // skipping: refinements over one frontier session pay
                // fewer reduce rounds than per-threshold rebuilds.
                assert!(
                    inc_refine_rounds < scratch_refine_rounds,
                    "threads={threads} seed={seed}: incremental rounds {inc_refine_rounds} \
                     not fewer than rebuild rounds {scratch_refine_rounds}"
                );
            }
            // The run_topk driver (frontier on) returns the best k of the
            // final incremental result.
            let topk = pipe.run_topk(&q, k, floor, &frontier_opts).unwrap();
            let mut want = last.unwrap().matches;
            want.sort_by(|a, b| {
                b.prob().partial_cmp(&a.prob()).unwrap().then_with(|| a.nodes.cmp(&b.nodes))
            });
            want.truncate(k);
            assert_bit_identical(&topk.matches, &want, &format!("threads={threads} topk")).unwrap();
        }
    }
}
