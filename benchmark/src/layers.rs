//! The library path of the traced run: each layer's public entry points
//! called in sequence on the harness's own copy of the graph, one span
//! per call, work counts recorded at the same boundaries.

use crate::check::{offline_options, Answer, Applied, GraphState};
use crate::trace::Recorder;
use graphstore::GraphOp;
use pegmatch::online::{
    build_kpartite, generate_matches_limited, CandidateSource, LocalSource, QueryOptions,
    QueryPipeline, ReduceOptions,
};
use pegmatch::query::QueryGraph;
use pegshard::wire::{decode_retrieve_reply, encode_retrieve_reply};
use pegshard::WorkerShard;
use pegtrace::Span as PegSpan;
use pegwire::Json;
use std::time::Instant;

/// Work counts of the online phases, summed over a request list. With a
/// fixed seed they repeat exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OnlineCounts {
    pub raw_candidates: u64,
    pub pruned_candidates: u64,
    pub final_candidates: u64,
    pub message_rounds: u64,
    pub frontier_evals: u64,
    pub matches: u64,
}

/// Span names of the five online phases, in pipeline order.
pub const ONLINE_PHASES: [&str; 5] =
    ["online.prepare", "online.retrieve", "online.join", "online.reduce", "online.generate"];

/// Runs one query phase by phase — `QueryPipeline::prepare`,
/// `CandidateSource::retrieve`, `build_kpartite`, `KPartiteGraph::reduce`,
/// `generate_matches_limited` — exactly the sequence a one-lane
/// `QuerySession` runs, under a `direct.request` span with one child per
/// phase. Returns the answer (the gate compares it with the served one).
pub fn direct_query(
    rec: &mut Recorder,
    request: usize,
    state: &GraphState,
    query: &QueryGraph,
    alpha: f64,
    limit: usize,
    counts: &mut OnlineCounts,
) -> Answer {
    let opts = QueryOptions::with_threads(1);
    let pool = pegpool::pool_with(1);
    let source = LocalSource { peg: &state.peg, offline: &state.offline };
    let root = rec.open("direct.request", None, request);

    let s = rec.open(ONLINE_PHASES[0], Some(root), request);
    let prepared = QueryPipeline::new(&state.peg, &state.offline)
        .prepare(query, alpha, &opts)
        .expect("generated query plans");
    rec.close(s);
    let (query, decomp) = (prepared.query(), prepared.decomposition());

    let s = rec.open(ONLINE_PHASES[1], Some(root), request);
    let sets = source
        .retrieve(query, decomp, prepared.path_stats(), alpha, &PegSpan::disabled(), &pool)
        .expect("local retrieval cannot fail");
    rec.close(s);
    let raw: usize = sets.iter().map(|cs| cs.raw_count).sum();
    let pruned: usize = sets.iter().map(|cs| cs.matches.len()).sum();
    rec.tag(s, "raw", raw as f64);
    rec.tag(s, "pruned", pruned as f64);

    let s = rec.open(ONLINE_PHASES[2], Some(root), request);
    let mut kp = build_kpartite(&state.peg, query, decomp, &sets, alpha, &pool);
    rec.close(s);

    let s = rec.open(ONLINE_PHASES[3], Some(root), request);
    let reduce_opts = ReduceOptions {
        use_upperbounds: opts.use_upperbounds,
        use_frontier: opts.use_frontier,
        parallel: false,
        threads: 1,
        max_rounds: opts.max_rounds,
    };
    let reduction = kp.reduce(alpha, &reduce_opts);
    rec.close(s);
    let alive: usize = kp.alive_counts().iter().sum();
    rec.tag(s, "rounds", reduction.rounds as f64);
    rec.tag(s, "frontier_evals", reduction.frontier_evals as f64);
    rec.tag(s, "final", alive as f64);

    let s = rec.open(ONLINE_PHASES[4], Some(root), request);
    let (matches, truncated) = generate_matches_limited(
        &state.peg,
        query,
        decomp,
        &kp,
        prepared.join_order(),
        alpha,
        Some(limit),
        &pool,
    );
    rec.close(s);
    rec.tag(s, "matches", matches.len() as f64);
    rec.close(root);

    counts.raw_candidates += raw as u64;
    counts.pruned_candidates += pruned as u64;
    counts.final_candidates += alive as u64;
    counts.message_rounds += reduction.rounds as u64;
    counts.frontier_evals += reduction.frontier_evals as u64;
    counts.matches += matches.len() as u64;
    Answer::from_matches(&matches, truncated)
}

/// Applies one mutation batch incrementally under a `live.apply_ops`
/// span.
pub fn apply_batch(
    rec: &mut Recorder,
    request: usize,
    state: &GraphState,
    ops: &[GraphOp],
) -> Applied {
    let s = rec.open("live.apply_ops", None, request);
    let applied = state.apply(ops);
    rec.close(s);
    rec.tag(s, "ops", ops.len() as f64);
    rec.tag(s, "dirty_nodes", applied.dirty_nodes as f64);
    applied
}

/// Compiles `state`'s reference network from scratch under a
/// `live.rebuild` span — what `apply_ops` is an alternative to.
pub fn rebuild(rec: &mut Recorder, request: usize, state: &GraphState) -> GraphState {
    let refs = state.refs.clone();
    let s = rec.open("live.rebuild", None, request);
    let (rebuilt, _, _) = GraphState::compile(refs);
    rec.close(s);
    rebuilt
}

/// Numbers of the shard layer for a list of queries: both shards of a
/// 2-way partition built in the harness (`WorkerShard::build`, what a
/// worker process runs on `shard_load`), each query's candidates
/// retrieved from them, and the `shard_retrieve` reply codec timed on
/// the captured `ShardReply`s.
pub struct ShardProbe {
    pub build_ms: f64,
    pub replication_factor: f64,
    /// Per query, summed over the two shards.
    pub retrieve_us: Vec<f64>,
    pub reply_encode_us: Vec<f64>,
    pub reply_decode_us: Vec<f64>,
    pub reply_bytes: u64,
}

pub const PROBE_SHARDS: usize = 2;

pub fn shard_probe(
    rec: &mut Recorder,
    state: &GraphState,
    queries: &[(usize, &QueryGraph, f64)],
) -> ShardProbe {
    let opts = offline_options();
    let pool = pegpool::pool_with(1);
    let inputs: Vec<_> =
        (0..PROBE_SHARDS).map(|_| (state.refs.clone(), state.peg.clone())).collect();
    let t = Instant::now();
    let shards: Vec<WorkerShard> = inputs
        .into_iter()
        .enumerate()
        .map(|(i, (refs, peg))| {
            WorkerShard::build(refs, peg, &opts, i, PROBE_SHARDS).expect("shard builds")
        })
        .collect();
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    let shard_nodes: usize = shards.iter().map(|s| s.info().nodes).sum();
    let mut probe = ShardProbe {
        build_ms,
        replication_factor: shard_nodes as f64 / state.peg.graph.n_nodes() as f64,
        retrieve_us: Vec::new(),
        reply_encode_us: Vec::new(),
        reply_decode_us: Vec::new(),
        reply_bytes: 0,
    };
    let pipeline = QueryPipeline::new(&state.peg, &state.offline);
    for &(request, query, alpha) in queries {
        let prepared = pipeline
            .prepare(query, alpha, &QueryOptions::with_threads(1))
            .expect("generated query plans");
        let paths = &prepared.decomposition().paths;
        let mut sums = [0u64; 3];
        for shard in &shards {
            let s = rec.open("pegshard.retrieve", None, request);
            let reply = shard.retrieve(query, paths, alpha, None, &pool).expect("shard retrieves");
            sums[0] += rec.close(s);
            let s = rec.open("pegshard.reply_encode", None, request);
            let text = encode_retrieve_reply(&reply).to_string();
            sums[1] += rec.close(s);
            probe.reply_bytes += text.len() as u64 + 1;
            let s = rec.open("pegshard.reply_decode", None, request);
            let parsed = Json::parse(&text).expect("encoded reply parses");
            let decoded = decode_retrieve_reply(&parsed, paths.len()).expect("reply decodes");
            sums[2] += rec.close(s);
            assert_eq!(decoded.paths.len(), reply.paths.len());
        }
        probe.retrieve_us.push(sums[0] as f64 / 1e3);
        probe.reply_encode_us.push(sums[1] as f64 / 1e3);
        probe.reply_decode_us.push(sums[2] as f64 / 1e3);
    }
    probe
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::graph_spec;
    use crate::requests::{cold_shapes, hot_shapes, mutation_batches, wide_shapes, WIDE_LIMIT};
    use crate::spec::SMOKE_GRAPH_SIZE;

    #[test]
    fn phases_in_sequence_equal_the_pipeline() {
        let (state, _) = GraphState::build(&graph_spec(SMOKE_GRAPH_SIZE));
        let mut rec = Recorder::new();
        let mut counts = OnlineCounts::default();
        let mut cases: Vec<(QueryGraph, f64, usize)> =
            cold_shapes(12).into_iter().map(|(q, a)| (q, a, 10_000)).collect();
        cases.extend(hot_shapes().into_iter().map(|q| (q, 0.5, 64)));
        cases.extend(wide_shapes().into_iter().map(|q| (q, 0.1, WIDE_LIMIT)));
        for (i, (q, alpha, limit)) in cases.iter().enumerate() {
            let direct = direct_query(&mut rec, i, &state, q, *alpha, *limit, &mut counts);
            assert_eq!(direct, state.answer(q, *alpha, *limit), "case {i}");
        }
        assert!(counts.matches > 0 && counts.raw_candidates >= counts.pruned_candidates);
        // Five phase spans under each request span, and nothing else.
        let roots = rec.spans().iter().filter(|s| s.name == "direct.request").count();
        assert_eq!(roots, cases.len());
        assert_eq!(rec.spans().len(), cases.len() * 6);
    }

    #[test]
    fn incremental_batches_match_a_rebuild() {
        let (state, _) = GraphState::build(&graph_spec(SMOKE_GRAPH_SIZE));
        let mut rec = Recorder::new();
        let mut current = state;
        for (i, batch) in mutation_batches(&current.refs.clone(), 4, 4).iter().enumerate() {
            current = apply_batch(&mut rec, i, &current, batch).state;
        }
        let rebuilt = rebuild(&mut rec, 4, &current);
        for q in hot_shapes() {
            assert_eq!(current.answer(&q, 0.3, 64), rebuilt.answer(&q, 0.3, 64));
        }
    }

    #[test]
    fn shard_probe_reports_both_shards() {
        let (state, _) = GraphState::build(&graph_spec(SMOKE_GRAPH_SIZE));
        let shapes = hot_shapes();
        let queries: Vec<(usize, &QueryGraph, f64)> =
            shapes.iter().enumerate().map(|(i, q)| (i, q, 0.5)).collect();
        let mut rec = Recorder::new();
        let probe = shard_probe(&mut rec, &state, &queries);
        assert!(probe.replication_factor >= 1.0);
        assert_eq!(probe.retrieve_us.len(), shapes.len());
        assert!(probe.reply_bytes > 0);
        assert_eq!(rec.durations("pegshard.reply_decode").len(), shapes.len() * PROBE_SHARDS);
    }
}
