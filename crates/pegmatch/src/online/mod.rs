//! The online phase (Section 5.2), layered prepared-statement style:
//!
//! * [`PreparedQuery`] ([`plan`]) — the cacheable plan: canonical shape,
//!   decomposition, per-path statistics, join order. Shareable across
//!   calls through a [`PlanCache`] keyed by canonical query shape.
//! * [`QuerySession`] ([`session`]) — per-execution state: pruned
//!   candidates, the k-partite graph, and its alpha-monotone incremental
//!   reduction base.
//! * [`QueryPipeline`] — thin `run` / `run_limited` / `run_topk` drivers
//!   over prepare + session.

pub mod candidates;
pub mod decompose;
pub mod exec_cache;
pub mod generate;
pub mod kpartite;
pub mod plan;
pub mod session;
pub mod source;

pub use candidates::{bound_keeps, CandidateSet, PathStats};
pub use decompose::{decompose, DecompStrategy, Decomposition, QueryPath};
pub use exec_cache::{floor_alpha, ExecCache, ExecCacheStats, ExecKey, DEFAULT_EXEC_CACHE_BYTES};
pub use generate::{
    generate_matches, generate_matches_limited, generate_matches_traced, join_order, JoinOrder,
};
pub use kpartite::{build_kpartite, KPartiteGraph, ReduceOptions, ReductionStats};
pub use plan::{PlanCache, PlanCacheEntry, PlanCacheStats, PreparedQuery};
pub use session::QuerySession;
pub use source::{CandidateSource, LocalSource};

use crate::error::PegError;
use crate::matcher::Match;
use crate::offline::OfflineIndex;
use crate::query::QueryGraph;
use crate::Peg;
use pegpool::ThreadPool;
use pegtrace::Tracer;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Online query processing options (the knobs behind the paper's baselines).
#[derive(Clone, Copy, Debug)]
pub struct QueryOptions {
    /// Decomposition strategy (cost-based or random).
    pub strategy: DecompStrategy,
    /// Run joint search-space reduction (off = "No SS Reduction" baseline).
    pub use_reduction: bool,
    /// Within reduction, run reduction by upper bounds.
    pub use_upperbounds: bool,
    /// Within upper-bound reduction, evaluate only the active frontier
    /// each message round (vertices whose inputs changed). Bit-exact vs
    /// full sweeps; `false` is the full-sweep reference mode.
    pub use_frontier: bool,
    /// Join-order strategy.
    pub join_order: JoinOrder,
    /// Cap on message-passing rounds per pass.
    pub max_rounds: usize,
    /// Compute lanes for the whole online phase — candidate retrieval,
    /// joint reduction, and match generation all share one persistent
    /// process-wide pool of this size. `0` = available parallelism,
    /// `1` = fully sequential. Result sets are byte-identical across
    /// settings; only latency changes.
    pub threads: usize,
}

impl Default for QueryOptions {
    fn default() -> Self {
        Self {
            strategy: DecompStrategy::CostBased,
            use_reduction: true,
            use_upperbounds: true,
            use_frontier: true,
            join_order: JoinOrder::Heuristic,
            max_rounds: 32,
            threads: 0,
        }
    }
}

impl QueryOptions {
    /// The paper's "Random decomposition" baseline: random cover, join order
    /// by candidate count only.
    pub fn random_decomposition(seed: u64) -> Self {
        Self {
            strategy: DecompStrategy::Random { seed },
            join_order: JoinOrder::BySizeOnly,
            ..Default::default()
        }
    }

    /// The paper's "No search-space reduction" baseline.
    pub fn no_reduction() -> Self {
        Self { use_reduction: false, ..Default::default() }
    }

    /// Default options pinned to `threads` compute lanes.
    pub fn with_threads(threads: usize) -> Self {
        Self { threads, ..Default::default() }
    }

    /// The persistent pool serving this option set.
    pub(crate) fn pool(&self) -> Arc<ThreadPool> {
        pegpool::pool_with(self.threads)
    }
}

/// Stage-by-stage instrumentation (powers Figures 7(e) and 7(f)).
#[derive(Clone, Debug, Default)]
pub struct PipelineStats {
    /// Number of decomposition paths.
    pub n_paths: usize,
    /// `|PIndex(lQ(VP), α)|` per path (the "Path" stage).
    pub raw_counts: Vec<usize>,
    /// Candidates surviving context pruning (the "Path+Context" stage).
    pub context_counts: Vec<usize>,
    /// Alive candidates after reduction (the "Final" stage).
    pub final_counts: Vec<usize>,
    /// `log10` of the product of `raw_counts`.
    pub log10_ss_index: f64,
    /// `log10` of the product of `context_counts`.
    pub log10_ss_context: f64,
    /// `log10` search space after reduction by structure.
    pub log10_ss_after_structure: f64,
    /// `log10` search space after full reduction.
    pub log10_ss_final: f64,
    /// Vertices removed by structure / upper bounds.
    pub removed_structure: usize,
    /// Vertices removed by reduction by upper bounds.
    pub removed_upperbound: usize,
    /// Message-passing rounds executed.
    pub message_rounds: usize,
    /// Vertices actually evaluated across all message rounds (the summed
    /// frontier sizes).
    pub frontier_evals: usize,
    /// Alive vertices the frontier schedule skipped versus full sweeps
    /// (`Σ per round: alive − evaluated`).
    pub full_evals_avoided: usize,
    /// Frontier size (vertices evaluated) per message round, in order.
    pub round_frontiers: Vec<usize>,
    /// Matches returned.
    pub n_matches: usize,
    /// Stage timings.
    pub decompose_time: Duration,
    /// Candidate retrieval + context pruning time.
    pub candidates_time: Duration,
    /// k-partite construction (join-candidates) time.
    pub join_time: Duration,
    /// Joint reduction time.
    pub reduction_time: Duration,
    /// Match generation time.
    pub generation_time: Duration,
    /// End-to-end time.
    pub total_time: Duration,
    /// Threshold the session base serving this run was converged at.
    pub base_alpha: f64,
    /// True when this run reused an existing session base (pure reuse or
    /// incremental refinement) instead of building one — the session's
    /// own, or one from an attached [`ExecCache`].
    pub base_reused: bool,
    /// True when the base serving this run came from an attached
    /// [`ExecCache`] (floor-threshold reuse) instead of being built. When
    /// set, the stage counts describe the cached floor build —
    /// bit-identical to what a cold build at the floor reports — and
    /// retrieval and the join did not run.
    pub exec_cache_hit: bool,
}

pub(crate) fn log10_product(counts: &[usize]) -> f64 {
    counts.iter().map(|&c| if c == 0 { f64::NEG_INFINITY } else { (c as f64).log10() }).sum()
}

/// Result of one query execution.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// All probabilistic matches with `Pr(M) ≥ α`, canonically sorted.
    /// When [`QueryResult::truncated`] is set, this holds only the first
    /// `limit` matches generation produced.
    pub matches: Vec<Match>,
    /// True when a [`QueryPipeline::run_limited`] cap stopped generation
    /// before the result set was complete.
    pub truncated: bool,
    /// Stage instrumentation.
    pub stats: PipelineStats,
}

/// The pipeline's binding to a candidate source: either the classic
/// single-store pair (owned inline so `QueryPipeline::new` needs no extra
/// allocation) or any shared [`CandidateSource`] implementation.
enum PipelineSource<'a> {
    Local(source::LocalSource<'a>),
    Shared(&'a dyn CandidateSource),
}

impl<'a> PipelineSource<'a> {
    fn as_dyn(&self) -> &dyn CandidateSource {
        match self {
            PipelineSource::Local(local) => local,
            PipelineSource::Shared(shared) => *shared,
        }
    }
}

/// The optimized online query processor: thin drivers over the
/// prepare → session layering, plus an optional shared [`PlanCache`].
pub struct QueryPipeline<'a> {
    peg: &'a Peg,
    source: PipelineSource<'a>,
    plan_cache: Option<Arc<PlanCache>>,
    /// Shared execution cache plus the epoch stamp of this pipeline's
    /// graph within it (see [`exec_cache`]).
    exec_cache: Option<(Arc<ExecCache>, u64)>,
}

impl<'a> QueryPipeline<'a> {
    /// Binds a pipeline to a PEG and its offline artifacts (path index +
    /// context info) as the candidate source. Shared caches attach with
    /// [`with_plan_cache`](Self::with_plan_cache) /
    /// [`with_exec_cache`](Self::with_exec_cache):
    ///
    /// ```ignore
    /// let pipeline = QueryPipeline::new(&peg, &offline)
    ///     .with_plan_cache(plans.clone())
    ///     .with_exec_cache(cache.clone(), epoch);
    /// ```
    pub fn new(peg: &'a Peg, offline: &'a OfflineIndex) -> Self {
        let source = PipelineSource::Local(source::LocalSource { peg, offline });
        Self { peg, source, plan_cache: None, exec_cache: None }
    }

    /// Binds a pipeline to a PEG and an arbitrary [`CandidateSource`] —
    /// the entry point for sharded stores, whose scatter-gather retrieval
    /// replaces the single offline index. `peg` must be the *full* graph
    /// the source's candidates refer to: k-partite construction and match
    /// generation evaluate cross-path edges and joint existence on it.
    pub fn with_source(peg: &'a Peg, source: &'a dyn CandidateSource) -> Self {
        Self { peg, source: PipelineSource::Shared(source), plan_cache: None, exec_cache: None }
    }

    /// Attaches a shared plan cache: [`QueryPipeline::prepare`] then keys
    /// plans by canonical query shape and reuses them across calls (and
    /// across pipelines sharing the cache for the *same* graph + index).
    pub fn with_plan_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.plan_cache = Some(cache);
        self
    }

    /// Attaches a shared execution cache under graph epoch `epoch`:
    /// sessions then answer a repeated shape from a reduced base cached at
    /// the shape's floor threshold instead of touching the candidate
    /// source (see [`exec_cache`]).
    /// Results are bit-identical to an uncached pipeline. Callers managing
    /// several graphs in one cache must issue distinct epochs via
    /// [`ExecCache::next_epoch`]; a standalone caller can pass any
    /// constant.
    pub fn with_exec_cache(mut self, cache: Arc<ExecCache>, epoch: u64) -> Self {
        self.exec_cache = Some((cache, epoch));
        self
    }

    /// Answers a probabilistic subgraph pattern matching query
    /// (Definition 5): all matches with `Pr(M) ≥ alpha`.
    pub fn run(
        &self,
        query: &QueryGraph,
        alpha: f64,
        opts: &QueryOptions,
    ) -> Result<QueryResult, PegError> {
        self.run_limited(query, alpha, None, opts)
    }

    /// [`QueryPipeline::run`] with a cap on the number of matches: the full
    /// pruning pipeline runs unchanged, but match *generation* stops as
    /// soon as `limit` matches exist, and the result is flagged
    /// [`QueryResult::truncated`]. Useful for low-threshold exploratory
    /// queries whose complete answer would be enormous.
    pub fn run_limited(
        &self,
        query: &QueryGraph,
        alpha: f64,
        limit: Option<usize>,
        opts: &QueryOptions,
    ) -> Result<QueryResult, PegError> {
        let prepared = self.prepare(query, alpha, opts)?;
        let mut session = self.session(&prepared, opts);
        session.run_at(alpha, limit)
    }

    fn validate(&self, query: &QueryGraph, alpha: f64) -> Result<(), PegError> {
        if !(0.0..=1.0).contains(&alpha) {
            return Err(PegError::Invalid(format!("threshold {alpha} out of range")));
        }
        let n_labels = self.peg.graph.label_table().len();
        for &l in query.labels() {
            if l.idx() >= n_labels {
                return Err(PegError::UnknownLabel(format!("{l:?}")));
            }
        }
        Ok(())
    }

    /// Stage 1, prepared-statement style: decomposition, per-path
    /// statistics, and join order — everything about answering `query`
    /// that does not depend on the data retrieved. With a plan cache
    /// attached, the plan is fetched by canonical shape when present and
    /// cached for future isomorphic queries when not. `alpha` only seeds
    /// the cost model on a planning miss; the plan answers any threshold.
    pub fn prepare(
        &self,
        query: &QueryGraph,
        alpha: f64,
        opts: &QueryOptions,
    ) -> Result<PreparedQuery, PegError> {
        self.prepare_traced(query, alpha, opts, &Tracer::disabled())
    }

    /// [`QueryPipeline::prepare`] as a `"prepare"` stage of `tracer`
    /// (tagged `from_cache`, `n_paths`). Traced or not, the stage's one
    /// clock read is the plan's [`PreparedQuery::decompose_time`].
    pub fn prepare_traced(
        &self,
        query: &QueryGraph,
        alpha: f64,
        opts: &QueryOptions,
        tracer: &Tracer,
    ) -> Result<PreparedQuery, PegError> {
        self.validate(query, alpha)?;
        let stage = tracer.stage("prepare");
        let source = self.source.as_dyn();
        let max_len = source.max_len().max(1);
        // Canonicalize always: planning runs over the *canonical-numbered*
        // query, so a fresh plan and a cache hit enumerate candidate paths
        // in the same order. Generation order — and therefore any `limit`
        // truncation prefix — is a pure function of the request, never of
        // which isomorphic sibling happened to warm the plan cache first.
        // (Cost estimates are label-based, so canonical planning picks the
        // same decomposition and join order as query-numbered planning.)
        let canon = query.canonical_form();
        let canon_query = canon.to_query();
        let build = || {
            let t = Instant::now();
            let est = |labels: &[graphstore::Label]| source.estimate_path_count(labels, alpha);
            let decomp = decompose(&canon_query, max_len, &est, opts.strategy)?;
            // Join order from the same cost estimates that priced the
            // decomposition; pinned to the plan so every execution
            // multiplies weights in the same order (bit-exact results).
            let sizes: Vec<usize> = decomp
                .paths
                .iter()
                .map(|p| est(&p.labels(&canon_query)).round().max(0.0) as usize)
                .collect();
            let order = join_order(&decomp, &sizes, opts.join_order);
            Ok((decomp, order, t.elapsed()))
        };
        let (decomp, order, from_cache, shape_hash) = match &self.plan_cache {
            Some(cache) => {
                let hash = canon.hash64();
                let (d, o, hit) =
                    cache.plan_for(&canon, opts.strategy, opts.join_order, max_len, build)?;
                (d, o, hit, Some(hash))
            }
            None => {
                let (d, o, _) = build()?;
                (d.renumbered(&canon.inverse()), o, false, None)
            }
        };
        let pstats: Vec<PathStats> =
            decomp.paths.iter().map(|p| PathStats::new(query, p)).collect();
        stage.tag("from_cache", from_cache);
        stage.tag("n_paths", decomp.paths.len());
        Ok(PreparedQuery {
            query: query.clone(),
            decomp,
            order,
            pstats,
            decompose_time: stage.finish(),
            shape_hash,
            from_cache,
            canon: Some(canon),
        })
    }

    /// Opens a fresh execution session over a prepared plan. Any number of
    /// sessions (including concurrent ones) may run over one plan.
    pub fn session<'s, 'p>(
        &'s self,
        prepared: &'p PreparedQuery,
        opts: &QueryOptions,
    ) -> QuerySession<'s, 'p> {
        QuerySession::new(self.peg, self.source.as_dyn(), prepared, *opts, self.exec_cache.clone())
    }

    /// Finds the `k` most probable matches of `query` (an extension beyond
    /// the paper's threshold queries): prepares once and drives
    /// [`QuerySession::run_topk`] over a fresh session.
    pub fn run_topk(
        &self,
        query: &QueryGraph,
        k: usize,
        min_alpha: f64,
        opts: &QueryOptions,
    ) -> Result<QueryResult, PegError> {
        let prepared = self.prepare(query, session::TOPK_START_ALPHA, opts)?;
        self.session(&prepared, opts).run_topk(k, min_alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::match_bruteforce;
    use crate::model::peg::{figure1_refgraph, PegBuilder};
    use crate::offline::OfflineOptions;
    use graphstore::Label;

    fn assert_same_matches(a: &[Match], b: &[Match]) {
        assert_eq!(a.len(), b.len(), "match counts differ: {a:?} vs {b:?}");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.nodes, y.nodes);
            assert!((x.prle - y.prle).abs() < 1e-9);
            assert!((x.prn - y.prn).abs() < 1e-9);
        }
    }

    #[test]
    fn pipeline_matches_bruteforce_on_figure1() {
        let peg = PegBuilder::new().build(&figure1_refgraph()).unwrap();
        let (a, r, i) = (Label(0), Label(1), Label(2));
        let q = crate::query::QueryGraph::path(&[r, a, i]).unwrap();
        for max_len in [1usize, 2, 3] {
            let idx = OfflineIndex::build(&peg, &OfflineOptions::with_len_and_beta(max_len, 0.01))
                .unwrap();
            let pipe = QueryPipeline::new(&peg, &idx);
            for alpha in [0.01, 0.05, 0.1, 0.2, 0.25, 0.5] {
                let got = pipe.run(&q, alpha, &QueryOptions::default()).unwrap();
                let want = match_bruteforce(&peg, &q, alpha);
                assert_same_matches(&got.matches, &want);
            }
        }
    }

    #[test]
    fn run_limited_caps_generation() {
        let peg = PegBuilder::new().build(&figure1_refgraph()).unwrap();
        let (a, r, i) = (Label(0), Label(1), Label(2));
        let q = crate::query::QueryGraph::path(&[r, a, i]).unwrap();
        let idx = OfflineIndex::build(&peg, &OfflineOptions::with_len_and_beta(2, 0.01)).unwrap();
        let pipe = QueryPipeline::new(&peg, &idx);
        let opts = QueryOptions::default();
        let alpha = 0.01;

        let full = pipe.run(&q, alpha, &opts).unwrap();
        assert!(!full.truncated);
        assert!(full.matches.len() >= 4, "figure 1 has several matches at α=0.01");

        // A cap below the total truncates and returns a subset of the full set.
        let k = full.matches.len() - 2;
        let capped = pipe.run_limited(&q, alpha, Some(k), &opts).unwrap();
        assert!(capped.truncated);
        assert_eq!(capped.matches.len(), k);
        for m in &capped.matches {
            assert!(
                full.matches.iter().any(|f| f.nodes == m.nodes),
                "capped result {:?} not in the full set",
                m.nodes
            );
        }

        // A cap at or above the total behaves exactly like run().
        let loose = pipe.run_limited(&q, alpha, Some(full.matches.len()), &opts).unwrap();
        assert_same_matches(&loose.matches, &full.matches);
        let looser = pipe.run_limited(&q, alpha, Some(1000), &opts).unwrap();
        assert!(!looser.truncated);
        assert_same_matches(&looser.matches, &full.matches);

        // Degenerate cap.
        let none = pipe.run_limited(&q, alpha, Some(0), &opts).unwrap();
        assert!(none.truncated);
        assert!(none.matches.is_empty());
    }

    #[test]
    fn baselines_agree_with_optimized() {
        let peg = PegBuilder::new().build(&figure1_refgraph()).unwrap();
        let (a, r, i) = (Label(0), Label(1), Label(2));
        let q = crate::query::QueryGraph::path(&[r, a, i]).unwrap();
        let idx = OfflineIndex::build(&peg, &OfflineOptions::with_len_and_beta(2, 0.01)).unwrap();
        let pipe = QueryPipeline::new(&peg, &idx);
        let reference = pipe.run(&q, 0.05, &QueryOptions::default()).unwrap();
        for opts in [
            QueryOptions::random_decomposition(1),
            QueryOptions::random_decomposition(99),
            QueryOptions::no_reduction(),
            QueryOptions { use_upperbounds: false, ..Default::default() },
            QueryOptions::with_threads(1),
            QueryOptions::with_threads(2),
            QueryOptions::with_threads(4),
        ] {
            let got = pipe.run(&q, 0.05, &opts).unwrap();
            assert_same_matches(&got.matches, &reference.matches);
        }
    }

    #[test]
    fn parallel_pipeline_is_byte_identical_to_sequential() {
        let peg = PegBuilder::new().build(&figure1_refgraph()).unwrap();
        let (a, r, i) = (Label(0), Label(1), Label(2));
        let q = crate::query::QueryGraph::path(&[r, a, i]).unwrap();
        let idx = OfflineIndex::build(&peg, &OfflineOptions::with_len_and_beta(1, 0.01)).unwrap();
        let pipe = QueryPipeline::new(&peg, &idx);
        for alpha in [0.01, 0.05, 0.2] {
            let seq = pipe.run(&q, alpha, &QueryOptions::with_threads(1)).unwrap();
            for threads in [2usize, 4, 8] {
                let par = pipe.run(&q, alpha, &QueryOptions::with_threads(threads)).unwrap();
                assert_same_matches(&par.matches, &seq.matches);
                assert_eq!(par.stats.raw_counts, seq.stats.raw_counts, "threads={threads}");
                assert_eq!(par.stats.final_counts, seq.stats.final_counts, "threads={threads}");
                assert_eq!(par.stats.message_rounds, seq.stats.message_rounds);
            }
        }
    }

    #[test]
    fn parallel_run_limited_truncates_identically() {
        let peg = PegBuilder::new().build(&figure1_refgraph()).unwrap();
        let (a, r, i) = (Label(0), Label(1), Label(2));
        let q = crate::query::QueryGraph::path(&[r, a, i]).unwrap();
        let idx = OfflineIndex::build(&peg, &OfflineOptions::with_len_and_beta(2, 0.01)).unwrap();
        let pipe = QueryPipeline::new(&peg, &idx);
        let full = pipe.run(&q, 0.01, &QueryOptions::with_threads(1)).unwrap();
        for limit in 0..=full.matches.len() + 2 {
            let seq =
                pipe.run_limited(&q, 0.01, Some(limit), &QueryOptions::with_threads(1)).unwrap();
            for threads in [2usize, 4] {
                let par = pipe
                    .run_limited(&q, 0.01, Some(limit), &QueryOptions::with_threads(threads))
                    .unwrap();
                assert_eq!(par.truncated, seq.truncated, "limit={limit} threads={threads}");
                assert_same_matches(&par.matches, &seq.matches);
            }
        }
    }

    #[test]
    fn topk_is_thread_count_invariant() {
        let peg = PegBuilder::new().build(&figure1_refgraph()).unwrap();
        let (a, r, i) = (Label(0), Label(1), Label(2));
        let q = crate::query::QueryGraph::path(&[r, a, i]).unwrap();
        let idx = OfflineIndex::build(&peg, &OfflineOptions::with_len_and_beta(2, 0.01)).unwrap();
        let pipe = QueryPipeline::new(&peg, &idx);
        for k in [1usize, 3, 10] {
            let seq = pipe.run_topk(&q, k, 1e-9, &QueryOptions::with_threads(1)).unwrap();
            let par = pipe.run_topk(&q, k, 1e-9, &QueryOptions::with_threads(4)).unwrap();
            assert_eq!(seq.matches.len(), par.matches.len());
            for (x, y) in seq.matches.iter().zip(&par.matches) {
                assert_eq!(x.nodes, y.nodes, "k={k}");
                assert!((x.prob() - y.prob()).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn stats_are_recorded() {
        let peg = PegBuilder::new().build(&figure1_refgraph()).unwrap();
        let (a, r, i) = (Label(0), Label(1), Label(2));
        let q = crate::query::QueryGraph::path(&[r, a, i]).unwrap();
        let idx = OfflineIndex::build(&peg, &OfflineOptions::with_len_and_beta(1, 0.01)).unwrap();
        let pipe = QueryPipeline::new(&peg, &idx);
        let res = pipe.run(&q, 0.05, &QueryOptions::default()).unwrap();
        assert_eq!(res.stats.n_paths, 2);
        assert_eq!(res.stats.raw_counts.len(), 2);
        assert!(res.stats.log10_ss_index >= res.stats.log10_ss_context);
        assert!(res.stats.log10_ss_context >= res.stats.log10_ss_final);
        assert_eq!(res.stats.n_matches, res.matches.len());
    }

    #[test]
    fn single_node_query_works() {
        let peg = PegBuilder::new().build(&figure1_refgraph()).unwrap();
        let q = crate::query::QueryGraph::new(vec![Label(0)], vec![]).unwrap();
        let idx = OfflineIndex::build(&peg, &OfflineOptions::with_len_and_beta(2, 0.01)).unwrap();
        let pipe = QueryPipeline::new(&peg, &idx);
        let res = pipe.run(&q, 0.5, &QueryOptions::default()).unwrap();
        assert_eq!(res.matches.len(), 1);
        assert_eq!(res.matches[0].nodes[0].0, 1);
    }

    #[test]
    fn topk_returns_best_matches() {
        let peg = PegBuilder::new().build(&figure1_refgraph()).unwrap();
        let (a, r, i) = (Label(0), Label(1), Label(2));
        let q = crate::query::QueryGraph::path(&[r, a, i]).unwrap();
        let idx = OfflineIndex::build(&peg, &OfflineOptions::with_len_and_beta(2, 0.01)).unwrap();
        let pipe = QueryPipeline::new(&peg, &idx);
        // Ground truth: all matches sorted by probability.
        let mut all = match_bruteforce(&peg, &q, 1e-9);
        all.sort_by(|x, y| y.prob().partial_cmp(&x.prob()).unwrap());
        for k in [0usize, 1, 2, 3, 10] {
            let got = pipe.run_topk(&q, k, 1e-9, &QueryOptions::default()).unwrap();
            assert_eq!(got.matches.len(), k.min(all.len()), "k={k}");
            for (x, y) in got.matches.iter().zip(&all) {
                assert!((x.prob() - y.prob()).abs() < 1e-9, "k={k}");
            }
        }
    }

    #[test]
    fn topk_respects_floor() {
        let peg = PegBuilder::new().build(&figure1_refgraph()).unwrap();
        let (a, r, i) = (Label(0), Label(1), Label(2));
        let q = crate::query::QueryGraph::path(&[r, a, i]).unwrap();
        let idx = OfflineIndex::build(&peg, &OfflineOptions::with_len_and_beta(2, 0.01)).unwrap();
        let pipe = QueryPipeline::new(&peg, &idx);
        // With a high floor only matches above it are reachable.
        let got = pipe.run_topk(&q, 10, 0.15, &QueryOptions::default()).unwrap();
        assert!(got.matches.iter().all(|m| m.prob() >= 0.15 - 1e-12));
        assert_eq!(got.matches.len(), 1);
    }

    #[test]
    fn plan_cache_hits_isomorphic_shapes() {
        let peg = PegBuilder::new().build(&figure1_refgraph()).unwrap();
        let (a, r, i) = (Label(0), Label(1), Label(2));
        let idx = OfflineIndex::build(&peg, &OfflineOptions::with_len_and_beta(2, 0.01)).unwrap();
        let cache = Arc::new(PlanCache::new());
        let pipe = QueryPipeline::new(&peg, &idx).with_plan_cache(cache.clone());
        let plain = QueryPipeline::new(&peg, &idx);
        let opts = QueryOptions::default();

        // The same labeled path under two different variable numberings.
        let q1 = crate::query::QueryGraph::path(&[r, a, i]).unwrap();
        let q2 = crate::query::QueryGraph::new(vec![i, a, r], vec![(0, 1), (1, 2)]).unwrap();
        assert_eq!(q1.shape_hash(), q2.shape_hash());

        let r1 = pipe.run(&q1, 0.05, &opts).unwrap();
        let r2 = pipe.run(&q2, 0.05, &opts).unwrap();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        // Cached-plan answers equal the uncached pipeline's.
        let w1 = plain.run(&q1, 0.05, &opts).unwrap();
        let w2 = plain.run(&q2, 0.05, &opts).unwrap();
        assert_same_matches(&r1.matches, &w1.matches);
        assert_same_matches(&r2.matches, &w2.matches);
        // Repeats hit.
        let _ = pipe.run(&q1, 0.2, &opts).unwrap();
        assert_eq!(cache.stats().hits, 2);
        let prepared = pipe.prepare(&q1, 0.2, &opts).unwrap();
        assert!(prepared.from_cache());
        assert_eq!(prepared.shape_hash(), Some(q1.shape_hash()));
        assert_eq!(cache.entries().len(), 1);
        assert!(cache.entries()[0].hits >= 3);
    }

    #[test]
    fn session_incremental_refinement_is_bit_exact() {
        let peg = PegBuilder::new().build(&figure1_refgraph()).unwrap();
        let (a, r, i) = (Label(0), Label(1), Label(2));
        let q = crate::query::QueryGraph::path(&[r, a, i]).unwrap();
        let idx = OfflineIndex::build(&peg, &OfflineOptions::with_len_and_beta(2, 0.01)).unwrap();
        let pipe = QueryPipeline::new(&peg, &idx);
        let opts = QueryOptions::default();
        let prepared = pipe.prepare(&q, 0.01, &opts).unwrap();

        // One session based low, refined upward; fresh sessions per alpha.
        let mut session = pipe.session(&prepared, &opts);
        session.rebase(0.01).unwrap();
        for alpha in [0.01, 0.05, 0.1, 0.2, 0.5] {
            let inc = session.run_at(alpha, None).unwrap();
            assert!(inc.stats.base_reused || alpha == 0.01);
            let mut fresh = pipe.session(&prepared, &opts);
            let scratch = fresh.run_at(alpha, None).unwrap();
            assert!(!scratch.stats.base_reused);
            assert_eq!(inc.matches.len(), scratch.matches.len(), "alpha={alpha}");
            for (x, y) in inc.matches.iter().zip(&scratch.matches) {
                assert_eq!(x.nodes, y.nodes);
                assert_eq!(x.prle.to_bits(), y.prle.to_bits(), "alpha={alpha}");
                assert_eq!(x.prn.to_bits(), y.prn.to_bits(), "alpha={alpha}");
            }
            // The base survives raising the threshold.
            assert!((session.base_alpha().unwrap() - 0.01).abs() < 1e-15);
        }
    }

    #[test]
    fn invalid_alpha_rejected() {
        let peg = PegBuilder::new().build(&figure1_refgraph()).unwrap();
        let q = crate::query::QueryGraph::new(vec![Label(0)], vec![]).unwrap();
        let idx = OfflineIndex::build(&peg, &OfflineOptions::with_len_and_beta(1, 0.01)).unwrap();
        let pipe = QueryPipeline::new(&peg, &idx);
        assert!(pipe.run(&q, 1.5, &QueryOptions::default()).is_err());
        assert!(pipe.run(&q, -0.1, &QueryOptions::default()).is_err());
    }
}
