//! Pluggable candidate retrieval: the seam between the online pipeline and
//! whatever store holds the path index.
//!
//! [`QuerySession`] drives stage 2 (raw retrieval + context pruning) and
//! planning-time cardinality estimation through a [`CandidateSource`]
//! rather than talking to an [`OfflineIndex`] directly:
//!
//! * [`LocalSource`] — the classic single-store binding (one PEG, one
//!   offline index); what [`QueryPipeline::new`] constructs.
//! * `pegshard::ShardedGraphStore` — scatter-gather over N per-shard
//!   stores, plugged in via [`QueryPipeline::with_source`].
//!
//! The contract that keeps every source interchangeable **bit-for-bit** is
//! the canonical candidate order: [`CandidateSource::retrieve`] must emit
//! each path's pruned candidates — one flat
//! [`PathMatches`](pathindex::PathMatches) per path — sorted by ascending
//! node sequence. Node sequences are unique within one retrieval, so the
//! order is a total one that no merge strategy, shard count, or
//! index-build thread count can perturb — and everything downstream
//! (k-partite construction, Jacobi reduction, match generation) is a
//! deterministic function of the ordered candidate lists. Because the
//! order is total, a source is free to prune first and sort only what
//! survives; [`retrieve_candidates`] — the one lookup → prune → sort both
//! sources run over a request's paths — does.
//!
//! Retrieval is fallible: a source backed by remote shard workers (the
//! `pegshard` TCP transport) can lose a worker mid-query. The contract for
//! failure is **all-or-nothing within a deadline** — a source must either
//! return the complete, exact candidate lists or a
//! [`PegError::ShardUnavailable`]; it must never hang and never return
//! partial lists (which would silently change results). Purely local
//! sources are infallible and simply return `Ok`.
//!
//! [`QuerySession`]: crate::online::QuerySession
//! [`QueryPipeline::new`]: crate::online::QueryPipeline::new
//! [`QueryPipeline::with_source`]: crate::online::QueryPipeline::with_source
//! [`OfflineIndex`]: crate::offline::OfflineIndex

use crate::error::PegError;
use crate::offline::OfflineIndex;
use crate::online::candidates::{retrieve_candidates, CandidateSet, PathStats};
use crate::online::decompose::Decomposition;
use crate::query::QueryGraph;
use crate::Peg;
use graphstore::Label;
use pegpool::ThreadPool;
use pegtrace::Span;

/// Where the online pipeline gets per-path candidates and planning
/// estimates. Implementations must be shareable across concurrent
/// sessions (`Sync`) and must uphold the canonical-order contract
/// documented on [`CandidateSource::retrieve`].
pub trait CandidateSource: Sync {
    /// Maximum indexed path length in edges — the bound query
    /// decomposition plans against.
    fn max_len(&self) -> usize;

    /// The index build threshold `β`: retrievals at `alpha ≥ β` come from
    /// the path index; below it the store falls back to enumeration. The
    /// execution cache clamps its floor threshold at `β` so a cached
    /// floor retrieval stays in the same regime as (and a superset of)
    /// every hitting query's direct retrieval.
    fn beta(&self) -> f64;

    /// Estimated `|PIndex(labels, alpha)|` for the cost model. Two sources
    /// over the same logical graph must return bit-identical estimates for
    /// plans (and therefore results) to agree bit-for-bit.
    fn estimate_path_count(&self, labels: &[Label], alpha: f64) -> f64;

    /// Pruned candidate sets for *every* decomposition path at threshold
    /// `alpha`, parallelized over `pool` as the source sees fit.
    ///
    /// Contract: `out[i]` holds path `i`'s surviving candidates sorted by
    /// ascending node sequence with no duplicate node sequences,
    /// and `out[i].raw_count` counts the distinct raw retrievals before
    /// context pruning (each logical path counted once, however many
    /// physical replicas the store keeps). Failure is all-or-nothing: a
    /// source whose backing store is unreachable returns
    /// [`PegError::ShardUnavailable`] (within its transport deadline —
    /// never a hang) rather than partial lists.
    ///
    /// `span` is the caller's open `"retrieve"` span: sources attach one
    /// pre-measured child per retrieval unit (per path locally; per
    /// `(shard, path)` or per worker subtree when sharded), each with
    /// `lookup` / `prune` / `sort` children
    /// ([`Retrieval::trace`](crate::online::candidates::Retrieval::trace)),
    /// in deterministic index order *after* any parallel join — never from
    /// pool threads, whose arrival order is racy. Callers without a
    /// tracer pass [`Span::disabled`]; sources must skip even the clock
    /// reads then, so always-on plumbing costs nothing when tracing is
    /// off.
    fn retrieve(
        &self,
        query: &QueryGraph,
        decomp: &Decomposition,
        pstats: &[PathStats],
        alpha: f64,
        span: &Span,
        pool: &ThreadPool,
    ) -> Result<Vec<CandidateSet>, PegError>;
}

/// The single-store candidate source: one PEG and its offline index.
#[derive(Clone, Copy)]
pub struct LocalSource<'a> {
    /// The probabilistic entity graph.
    pub peg: &'a Peg,
    /// Its offline artifacts (path index + context information).
    pub offline: &'a OfflineIndex,
}

impl CandidateSource for LocalSource<'_> {
    fn max_len(&self) -> usize {
        self.offline.paths.config().max_len
    }

    fn beta(&self) -> f64 {
        self.offline.paths.config().beta
    }

    fn estimate_path_count(&self, labels: &[Label], alpha: f64) -> f64 {
        self.offline.estimate_path_count(labels, alpha)
    }

    fn retrieve(
        &self,
        query: &QueryGraph,
        decomp: &Decomposition,
        pstats: &[PathStats],
        alpha: f64,
        span: &Span,
        pool: &ThreadPool,
    ) -> Result<Vec<CandidateSet>, PegError> {
        // Timing is gated on the span so a disabled tracer costs no clock
        // reads; pool threads only measure — the spans attach here, once
        // the retrieval is back, in path index order.
        let timed = span.is_recording();
        let got = retrieve_candidates(
            self.peg,
            self.offline,
            query,
            &decomp.paths,
            pstats,
            alpha,
            pool,
            None,
            timed,
        );
        let sets = got.into_iter().enumerate().map(|(i, got)| {
            if timed {
                let unit = got.trace(span, "path");
                unit.tag("path", i);
                unit.tag("raw", got.set.raw_count);
                unit.tag("pruned", got.set.matches.len());
            }
            got.set
        });
        Ok(sets.collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::peg::{figure1_refgraph, PegBuilder};
    use crate::offline::{OfflineIndex, OfflineOptions};
    use crate::online::decompose::{decompose, DecompStrategy};
    use graphstore::Label;

    #[test]
    fn local_source_emits_sorted_unique_candidates() {
        let peg = PegBuilder::new().build(&figure1_refgraph()).unwrap();
        let idx = OfflineIndex::build(&peg, &OfflineOptions::with_len_and_beta(2, 0.01)).unwrap();
        let src = LocalSource { peg: &peg, offline: &idx };
        assert_eq!(src.max_len(), 2);
        let (a, r, i) = (Label(0), Label(1), Label(2));
        let q = QueryGraph::path(&[r, a, i]).unwrap();
        let d = decompose(&q, 2, &|_| 1.0, DecompStrategy::CostBased).unwrap();
        let pstats: Vec<PathStats> = d.paths.iter().map(|p| PathStats::new(&q, p)).collect();
        let pool = pegpool::pool_with(1);
        let sets = src.retrieve(&q, &d, &pstats, 0.01, &Span::disabled(), &pool).unwrap();
        assert_eq!(sets.len(), d.paths.len());
        for cs in &sets {
            assert!(cs.raw_count >= cs.matches.len());
            for i in 1..cs.matches.len() {
                assert!(cs.matches.row(i - 1) < cs.matches.row(i), "canonical order violated");
            }
        }
    }
}
