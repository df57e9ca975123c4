//! Per-execution query state: the [`QuerySession`].
//!
//! A session binds one [`PreparedQuery`] to one execution context — pruned
//! candidates, the candidate k-partite graph, and its reduction state. The
//! session's *base* is that state converged at some threshold `base_alpha`;
//! any query threshold `alpha ≥ base_alpha` is then answered
//! **alpha-monotone incrementally**: raising the threshold keeps the base's
//! kill lists and perception bounds, kills exactly the vertices whose
//! converged upper bound falls below the new alpha, and continues Jacobi
//! rounds from the converged state instead of rebuilding. Soundness is the
//! same argument as the from-scratch reduction (perception fixpoints are
//! upper bounds on any extension's probability, and every vertex dead at
//! `base_alpha` is dead at any higher threshold), and match generation
//! re-checks every candidate exactly, so results are byte-identical to a
//! from-scratch run over the same plan — the incremental path only changes
//! how much reduction work a refinement pays.

use crate::error::PegError;
use crate::online::candidates::CandidateSet;
use crate::online::exec_cache::{floor_alpha, ExecCache, ExecKey};
use crate::online::generate::generate_matches_traced;
use crate::online::kpartite::{build_kpartite_traced, KPartiteGraph, ReduceOptions};
use crate::online::plan::PreparedQuery;
use crate::online::source::CandidateSource;
use crate::online::{log10_product, PipelineStats, QueryOptions, QueryResult};
use crate::query::QNode;
use crate::Peg;
use pegtrace::{Span, Tracer};
use std::sync::Arc;
use std::time::Instant;

const EPS: f64 = 1e-12;

/// Threshold a top-k search starts at (and the one its plan is costed
/// at) before tightening geometrically toward the caller's floor.
pub const TOPK_START_ALPHA: f64 = 0.5;

/// The session base: candidates pruned, k-partite graph built, and
/// reduction converged at `alpha`.
struct SessionBase {
    alpha: f64,
    kp: KPartiteGraph,
    /// Stage stats of the base build (stages 2–4).
    stats: PipelineStats,
}

/// Mutable per-execution state for one prepared plan.
///
/// Create with [`QueryPipeline::session`]; drive with
/// [`QuerySession::run_at`] (and [`QuerySession::rebase`] to pre-position
/// the base below an upcoming threshold, as the top-k driver does). The
/// thin [`QueryPipeline::run`] / `run_limited` / `run_topk` drivers are
/// exactly this: prepare, open a session, run.
///
/// [`QueryPipeline::session`]: crate::online::QueryPipeline::session
/// [`QueryPipeline::run`]: crate::online::QueryPipeline::run
pub struct QuerySession<'a, 'p> {
    peg: &'a Peg,
    source: &'a dyn CandidateSource,
    prepared: &'p PreparedQuery,
    opts: QueryOptions,
    /// Shared execution cache + this graph's epoch, when the owning
    /// pipeline has one attached (see [`crate::online::exec_cache`]).
    exec: Option<(Arc<ExecCache>, u64)>,
    /// The request tracer stage spans emit into. Disabled by default — a
    /// disabled tracer's spans are inert, so the emission sites cost
    /// nothing unless an embedder opted the session in via
    /// [`QuerySession::set_tracer`].
    tracer: Tracer,
    base: Option<SessionBase>,
}

impl<'a, 'p> QuerySession<'a, 'p> {
    pub(crate) fn new(
        peg: &'a Peg,
        source: &'a dyn CandidateSource,
        prepared: &'p PreparedQuery,
        opts: QueryOptions,
        exec: Option<(Arc<ExecCache>, u64)>,
    ) -> Self {
        Self { peg, source, prepared, opts, exec, tracer: Tracer::disabled(), base: None }
    }

    /// The plan this session executes.
    pub fn prepared(&self) -> &'p PreparedQuery {
        self.prepared
    }

    /// Attaches a tracer: subsequent [`QuerySession::rebase`] /
    /// [`QuerySession::run_at`] calls emit one span per stage
    /// (`"retrieve"`, `"join"`, `"reduce"`, `"generate"`; `"join"` carries a
    /// `"vertices"` child and one `"pair"` child per joined pair) into it, in
    /// chronological order — a multi-rebase top-k run simply appends more
    /// stage spans. The spans open at the handle's position: root level,
    /// or under the embedder's own span when the handle is that span's
    /// [`Span::tracer`] (the serving layer's `"request"`). Each stage is
    /// opened once and closed once: the duration [`Span::finish`] returns
    /// is both the span's `elapsed_us` and the stage's [`PipelineStats`]
    /// time, tracer enabled or not.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Threshold the base state is converged at (`None` before any run).
    pub fn base_alpha(&self) -> Option<f64> {
        self.base.as_ref().map(|b| b.alpha)
    }

    /// Stage stats of the current base build (stages 2–4 at the base
    /// threshold) — what a rebase cost, for work accounting.
    pub fn base_stats(&self) -> Option<&PipelineStats> {
        self.base.as_ref().map(|b| &b.stats)
    }

    /// (Re)builds the base at `alpha`: raw retrieval, context pruning,
    /// k-partite construction, and reduction to fixpoint. Subsequent
    /// [`QuerySession::run_at`] calls at thresholds `≥ alpha` refine this
    /// state incrementally; a call below `alpha` triggers another rebase.
    pub fn rebase(&mut self, alpha: f64) -> Result<(), PegError> {
        if !(0.0..=1.0).contains(&alpha) {
            return Err(PegError::Invalid(format!("threshold {alpha} out of range")));
        }
        let prepared = self.prepared;
        let query = &prepared.query;
        let decomp = &prepared.decomp;
        let pool = self.opts.pool();
        let mut stats = PipelineStats {
            n_paths: decomp.paths.len(),
            decompose_time: prepared.decompose_time,
            base_alpha: alpha,
            ..PipelineStats::default()
        };

        // 2. Raw retrieval + context pruning, through the session's
        // candidate source (single store or scatter-gather over shards).
        // Every source emits candidates in the canonical node-sequence
        // order, so everything from here on is source-independent. With an
        // execution cache attached, retrieval runs at the shape's floor
        // threshold through the cache and the floor lists are re-pruned at
        // `alpha` by keep-bound — bit-identical survivors either way (see
        // `crate::online::exec_cache`), so the rest of the pipeline cannot
        // observe the difference.
        let span = self.tracer.stage("retrieve");
        span.tag("alpha", alpha);
        let (sets, exec_hit) = self.retrieve_sets(alpha, &span, &pool)?;
        for cs in &sets {
            stats.raw_counts.push(cs.raw_count);
            stats.context_counts.push(cs.matches.len());
        }
        if span.is_recording() {
            span.tag("paths", stats.n_paths);
            span.tag("raw", stats.raw_counts.iter().sum::<usize>());
            span.tag("pruned", stats.context_counts.iter().sum::<usize>());
        }
        stats.candidates_time = span.finish();
        stats.exec_cache_hit = exec_hit;
        stats.log10_ss_index = log10_product(&stats.raw_counts);
        stats.log10_ss_context = log10_product(&stats.context_counts);

        // 3. Join-candidates / k-partite construction.
        let span = self.tracer.stage("join");
        let mut kp = build_kpartite_traced(self.peg, query, decomp, &sets, alpha, &pool, &span);
        stats.join_time = span.finish();

        // 4. Joint search-space reduction to fixpoint.
        let span = self.tracer.stage("reduce");
        if self.opts.use_reduction {
            let r = kp.reduce_traced(alpha, &self.reduce_opts(&pool), &span);
            stats.removed_structure = r.removed_structure;
            stats.removed_upperbound = r.removed_upperbound;
            stats.message_rounds = r.rounds;
            stats.frontier_evals = r.frontier_evals;
            stats.full_evals_avoided = r.full_evals_avoided;
            stats.round_frontiers = r.round_frontiers.iter().map(|f| f.evals).collect();
            stats.log10_ss_after_structure = r.log10_after_structure;
        } else {
            stats.log10_ss_after_structure = kp.log10_search_space();
        }
        span.tag("rounds", stats.message_rounds);
        span.tag("removed_structure", stats.removed_structure);
        span.tag("removed_upperbound", stats.removed_upperbound);
        span.tag("frontier_evals", stats.frontier_evals);
        span.tag("full_evals_avoided", stats.full_evals_avoided);
        stats.reduction_time = span.finish();
        stats.final_counts = kp.alive_counts();
        stats.log10_ss_final = kp.log10_search_space();

        self.base = Some(SessionBase { alpha, kp, stats });
        Ok(())
    }

    /// Stage-2 retrieval, through the execution cache when one is attached
    /// and the plan carries its canonical form. Returns the candidate sets
    /// pruned at `alpha` plus whether they came from a cache hit.
    ///
    /// Cache path: the lookup key pins the graph epoch, canonical shape,
    /// canonical-numbered decomposition paths, index params, and the
    /// floor threshold [`floor_alpha`]`(alpha, β)`. A hit re-prunes the
    /// cached floor lists by keep-bound — no source, index, or scatter
    /// work. A miss retrieves at the *floor* (so the entry serves every
    /// `alpha' ≥ floor`), caches, and re-prunes the same way; since
    /// re-pruning a floor superset is bit-identical to direct retrieval at
    /// `alpha`, all three paths (hit, miss, no cache) agree bit-for-bit.
    fn retrieve_sets(
        &self,
        alpha: f64,
        span: &Span,
        pool: &pegpool::ThreadPool,
    ) -> Result<(Vec<CandidateSet>, bool), PegError> {
        let prepared = self.prepared;
        let query = &prepared.query;
        let decomp = &prepared.decomp;
        if let (Some((cache, epoch)), Some(canon)) = (&self.exec, &prepared.canon) {
            let beta = self.source.beta();
            let floor = floor_alpha(alpha, beta);
            let paths: Vec<&[QNode]> = decomp.paths.iter().map(|p| p.nodes.as_slice()).collect();
            let key = ExecKey::new(*epoch, canon, &paths, self.source.max_len(), beta, floor);
            // A hit skips the source entirely; the re-prune of the floor
            // lists (a `"filter"` child) is then all of stage 2, and what
            // `candidates_time` reports.
            if let Some(cached) = cache.get(&key) {
                span.tag("cache", "hit");
                span.tag("floor", floor);
                return Ok((Self::filter_sets(&cached, alpha, span), true));
            }
            span.tag("cache", "miss");
            span.tag("floor", floor);
            let sets = self.source.retrieve(query, decomp, &prepared.pstats, floor, span, pool)?;
            let sets = Arc::new(sets);
            cache.insert(key, Arc::clone(&sets));
            return Ok((Self::filter_sets(&sets, alpha, span), false));
        }
        let sets = self.source.retrieve(query, decomp, &prepared.pstats, alpha, span, pool)?;
        Ok((sets, false))
    }

    fn reduce_opts(&self, pool: &pegpool::ThreadPool) -> ReduceOptions {
        ReduceOptions {
            use_upperbounds: self.opts.use_upperbounds,
            use_frontier: self.opts.use_frontier,
            parallel: pool.lanes() > 1,
            threads: self.opts.threads,
            max_rounds: self.opts.max_rounds,
        }
    }

    /// Answers the query at `alpha` (all matches with `Pr(M) ≥ alpha`,
    /// optionally capped at `limit`).
    ///
    /// Builds the base at `alpha` when none exists or the existing base
    /// sits above `alpha`; otherwise reuses it — exactly at the base
    /// threshold the converged state is final, and above it the session
    /// refines a copy incrementally (kills by converged bound, cascades,
    /// continues Jacobi rounds). The returned
    /// [`PipelineStats::message_rounds`] counts only rounds this call
    /// executed, which is what the incremental top-k saves.
    ///
    /// Stats caveat for base-reusing calls: the stage counters and timings
    /// (raw/context counts, candidates/join times, and for pure reuse the
    /// search-space numbers) describe the *base build* that serves this
    /// threshold — i.e. the work and search space the session actually
    /// processed, at [`PipelineStats::base_alpha`] — not a hypothetical
    /// from-scratch run at `alpha`. [`PipelineStats::total_time`] covers
    /// only this call.
    pub fn run_at(&mut self, alpha: f64, limit: Option<usize>) -> Result<QueryResult, PegError> {
        if !(0.0..=1.0).contains(&alpha) {
            return Err(PegError::Invalid(format!("threshold {alpha} out of range")));
        }
        let t_total = Instant::now();
        let needs_base = match &self.base {
            None => true,
            Some(b) => alpha + EPS < b.alpha,
        };
        if needs_base {
            self.rebase(alpha)?;
        }
        let base = self.base.as_ref().expect("base built above");
        let pool = self.opts.pool();

        let mut stats = base.stats.clone();
        stats.base_reused = !needs_base;
        // The refined graph when `alpha` sits strictly above the base and
        // there is reduction work to do; without reduction the base graph
        // answers any higher threshold as-is (generation re-filters
        // exactly), so no copy is made.
        let strictly_above = !needs_base && alpha > base.alpha + EPS;
        let refined: Option<KPartiteGraph> = if strictly_above && self.opts.use_reduction {
            let span = self.tracer.stage("reduce");
            span.tag("incremental", true);
            span.tag("base_alpha", base.alpha);
            let mut kp = base.kp.clone();
            let r = kp.reduce_traced(alpha, &self.reduce_opts(&pool), &span);
            stats.message_rounds = r.rounds;
            stats.removed_structure = r.removed_structure;
            stats.removed_upperbound = r.removed_upperbound;
            stats.frontier_evals = r.frontier_evals;
            stats.full_evals_avoided = r.full_evals_avoided;
            stats.round_frontiers = r.round_frontiers.iter().map(|f| f.evals).collect();
            stats.log10_ss_after_structure = r.log10_after_structure;
            stats.final_counts = kp.alive_counts();
            stats.log10_ss_final = kp.log10_search_space();
            span.tag("rounds", r.rounds);
            span.tag("frontier_evals", r.frontier_evals);
            stats.reduction_time = span.finish();
            Some(kp)
        } else {
            if !needs_base {
                // Pure reuse (or reduction disabled): the converged base
                // answers `alpha` directly; no reduction work this call.
                stats.message_rounds = 0;
                stats.removed_structure = 0;
                stats.removed_upperbound = 0;
                stats.frontier_evals = 0;
                stats.full_evals_avoided = 0;
                stats.round_frontiers = Vec::new();
                stats.reduction_time = std::time::Duration::ZERO;
            }
            None
        };
        let kp = refined.as_ref().unwrap_or(&base.kp);

        // 5. Match generation over the plan's join order (seed-parallel).
        let span = self.tracer.stage("generate");
        span.tag("alpha", alpha);
        span.tag("base_reused", stats.base_reused);
        let (matches, truncated) = generate_matches_traced(
            self.peg,
            &self.prepared.query,
            &self.prepared.decomp,
            kp,
            &self.prepared.order,
            alpha,
            limit,
            &pool,
            &span,
        );
        stats.n_matches = matches.len();
        span.tag("matches", stats.n_matches);
        span.tag("truncated", truncated);
        stats.generation_time = span.finish();
        stats.total_time = t_total.elapsed();

        Ok(QueryResult { matches, truncated, stats })
    }

    /// Re-prunes cached floor-threshold candidate sets at `alpha` by
    /// keep-bound, under a `"filter"` child of `span`. Order-preserving
    /// column copies, so the canonical candidate order survives; survivors
    /// (and their bounds) are exactly those a direct retrieval at `alpha`
    /// would produce.
    fn filter_sets(sets: &[CandidateSet], alpha: f64, span: &Span) -> Vec<CandidateSet> {
        let filter = span.child("filter");
        let filtered: Vec<CandidateSet> = sets.iter().map(|cs| cs.filtered(alpha)).collect();
        if filter.is_recording() {
            filter.tag("kept", filtered.iter().map(|cs| cs.matches.len()).sum::<usize>());
        }
        filtered
    }

    /// Finds the `k` most probable matches of the session's query.
    ///
    /// Works by iterative threshold tightening: the pipeline runs at a
    /// threshold, and if fewer than `k` matches qualify the threshold is
    /// lowered geometrically until either `k` matches are found or the
    /// floor `min_alpha` is reached. Because a threshold run returns *all*
    /// matches above the threshold, the best `k` of a sufficiently large
    /// result set are the global top-k.
    ///
    /// Refinement is incremental: when the threshold drops below the
    /// session base the base is rebuilt one geometric step *ahead* of
    /// schedule — so at most every other refinement pays candidate
    /// pruning, k-partite construction, and reduction convergence; the
    /// others reuse the converged base (alpha-monotone: at the base
    /// threshold outright, and above it by continuing from the converged
    /// state).
    ///
    /// Returns matches sorted by descending probability (ties broken by
    /// node ids); the stats are those of the final run — where that run
    /// reused the session base, its stage counters describe the base
    /// build that served it (at [`PipelineStats::base_alpha`], one
    /// lookahead step below the final threshold), per the
    /// [`QuerySession::run_at`] stats contract.
    pub fn run_topk(&mut self, k: usize, min_alpha: f64) -> Result<QueryResult, PegError> {
        if k == 0 {
            let mut empty = self.run_at(1.0, None)?;
            empty.matches.clear();
            return Ok(empty);
        }
        let mut alpha = TOPK_START_ALPHA;
        let floor = min_alpha.max(1e-12);
        loop {
            if let Some(base) = self.base_alpha() {
                if alpha + 1e-12 < base {
                    // Rebase with one step of lookahead; the next
                    // refinement (if any) reuses this base outright.
                    self.rebase((alpha * 0.25).max(floor))?;
                }
            }
            let mut res = self.run_at(alpha, None)?;
            if res.matches.len() >= k || alpha <= floor {
                res.matches.sort_by(|a, b| {
                    b.prob()
                        .partial_cmp(&a.prob())
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| a.nodes.cmp(&b.nodes))
                });
                res.matches.truncate(k);
                res.stats.n_matches = res.matches.len();
                return Ok(res);
            }
            alpha = (alpha * 0.25).max(floor);
        }
    }
}
