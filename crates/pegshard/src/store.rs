//! The sharded store: transport-independent scatter-gather on the
//! [`ShardTransport`] seam.

use crate::shard::{halo_for, ShardInfo, ShardSummary};
use crate::transport::{
    InProcessTransport, PathPartial, ShardReply, ShardRequest, ShardTransport, TcpTransport,
    TransportError, UpdateRequest, WorkerStats,
};
use graphstore::hash::FxHashMap;
use graphstore::{GraphOp, Label, RefGraph};
use pathindex::PathMatches;
use pegmatch::error::PegError;
use pegmatch::live::UpdatePhases;
use pegmatch::model::PegBuilder;
use pegmatch::offline::OfflineOptions;
use pegmatch::online::{CandidateSet, CandidateSource, Decomposition, PathStats, QueryPipeline};
use pegmatch::query::QueryGraph;
use pegmatch::Peg;
use pegpool::ThreadPool;
use pegtrace::{Span, SpanNode, TagValue};
use pegwire::Json;
use std::time::{Duration, Instant};

/// Build-time sharding statistics: partition shape and replication cost.
#[derive(Clone, Debug)]
pub struct ShardingStats {
    /// Shard count.
    pub n_shards: usize,
    /// Replication radius in hops around owned nodes (`max_len + 1`).
    pub halo_radius: usize,
    /// Per-shard breakdown.
    pub per_shard: Vec<ShardInfo>,
    /// Σ shard nodes − graph nodes: the boundary copies replication pays.
    pub replicated_nodes: usize,
    /// Σ shard nodes ÷ graph nodes (1.0 = no replication).
    pub replication_factor: f64,
    /// Σ shard index entries ÷ unsharded entry count is not tracked here
    /// (no unsharded index is built); this is the raw Σ entries.
    pub total_index_entries: usize,
    /// Wall time of the whole sharded build (subgraphs + indexes —
    /// or, for a distributed store, the worker handshake that built
    /// them remotely).
    pub build_time: Duration,
}

/// Retrieval-time scatter-gather statistics of one
/// [`CandidateSource::retrieve`] call. Their one record is the tags the
/// store puts on that call's `"retrieve"` span; read them back with
/// [`ScatterStats::from_span`].
#[derive(Clone, Debug, Default)]
pub struct ScatterStats {
    /// Raw index retrievals per shard (including boundary replicas).
    pub per_shard_raw: Vec<usize>,
    /// Per shard: survivors of that shard's own context pruning,
    /// boundary replicas included (replicas are dropped by the shard's
    /// home filter before the gather ever sees them).
    pub per_shard_pruned: Vec<usize>,
    /// Distinct raw retrievals (each logical path counted at its home
    /// shard) — equals the unsharded pipeline's raw count.
    pub raw_distinct: usize,
    /// Distinct pruned candidates after the gather.
    pub pruned_distinct: usize,
    /// Boundary-replicated candidates that survived a shard's pruning but
    /// were dropped by its home filter (never shipped, never gathered).
    pub duplicates_dropped: usize,
    /// Wall time of the retrieval: the `"retrieve"` span's own clock.
    pub retrieve_time: Duration,
}

impl ScatterStats {
    /// Tags a request's open `"retrieve"` span with this scatter's counts,
    /// so a traced request carries its *own* scatter statistics.
    fn tag(&self, retrieve: &Span) {
        retrieve.tag("raw_distinct", self.raw_distinct);
        retrieve.tag("pruned_distinct", self.pruned_distinct);
        retrieve.tag("duplicates_dropped", self.duplicates_dropped);
        for (s, (raw, pruned)) in self.per_shard_raw.iter().zip(&self.per_shard_pruned).enumerate()
        {
            retrieve.tag(&format!("shard{s}_raw"), *raw);
            retrieve.tag(&format!("shard{s}_pruned"), *pruned);
        }
    }

    /// Reads back what [`ShardedGraphStore`]'s retrieval tagged onto a
    /// finished `"retrieve"` span (`retrieve_time` is the span's own
    /// elapsed time). `None` when the request never scattered — an
    /// unsharded graph, or an execution-cache hit.
    pub fn from_span(retrieve: &SpanNode) -> Option<ScatterStats> {
        let count = |key: &str| match retrieve.tag(key) {
            Some(TagValue::U64(n)) => Some(*n as usize),
            _ => None,
        };
        let per_shard =
            |what: &str| (0..).map_while(|s| count(&format!("shard{s}_{what}"))).collect();
        Some(ScatterStats {
            per_shard_raw: per_shard("raw"),
            per_shard_pruned: per_shard("pruned"),
            raw_distinct: count("raw_distinct")?,
            pruned_distinct: count("pruned_distinct")?,
            duplicates_dropped: count("duplicates_dropped")?,
            retrieve_time: Duration::from_micros(retrieve.elapsed_us),
        })
    }
}

/// What one [`ShardedGraphStore::apply_update`] did: how much of the
/// partition the mutation's dirty ball actually reached.
#[derive(Clone, Debug)]
pub struct UpdateStats {
    /// Dirty nodes in the compiled delta (existence-changed ∪ touched).
    pub n_dirty: usize,
    /// Shards rebuilt because the dirty ball reached their halo.
    pub rebuilt_shards: usize,
    /// Existence components the store's own recompile of the full graph
    /// carried over from the previous model by `Arc`.
    pub reused_components: usize,
    /// Time of the store's own steps (reference network and full-graph
    /// recompile); the index and context phases stay zero — shards
    /// rebuild whole behind the transport.
    pub phases: UpdatePhases,
}

/// One entity graph partitioned into N shards, each owning its own
/// subgraph ([`Peg`]) and offline index, with a scatter-gather
/// [`CandidateSource`] on top — written once against the
/// [`ShardTransport`] seam, so the shards may live in this process
/// ([`ShardedGraphStore::build`]) or behind worker processes
/// ([`ShardedGraphStore::connect`]) with **identical** results.
///
/// The store keeps the **full** PEG for the global phases (k-partite
/// construction, joint reduction, match generation evaluate cross-path
/// edges and joint existence), while the *path index* — the offline
/// phase's dominant artifact — exists only in partitioned form. Results
/// through [`ShardedGraphStore::pipeline`] are f64-bit-identical to an
/// unsharded [`QueryPipeline`] over the same graph and offline options,
/// for every shard count and either transport; see the crate docs for
/// the exactness argument.
pub struct ShardedGraphStore {
    peg: Peg,
    transport: Box<dyn ShardTransport>,
    /// The offline options every shard's index was built with — a live
    /// update must rebuild affected shards with the identical config or
    /// the rebuild-equivalence guarantee breaks — and whose `beta`,
    /// `max_len` and `hist_grid` reproduce the unsharded estimates.
    opts: OfflineOptions,
    /// Merged per-sequence histograms: element-wise sums of each shard's
    /// home-only counts, bit-identical to the unsharded histogram.
    hist: FxHashMap<Vec<u16>, Vec<u32>>,
    stats: ShardingStats,
}

/// What the gather requires of one shard's partial before it merges it:
/// candidates `path_len` nodes long (an
/// empty partial states its stride too), every id a node of the
/// `n_nodes`-node graph, and the rows strictly ascending — the canonical
/// order the merge relies on.
fn check_partial(part: &PathPartial, path_len: usize, n_nodes: usize) -> Result<(), String> {
    let m = &part.matches;
    if m.stride() != path_len {
        return Err(format!("candidates of {} nodes for a path of {path_len}", m.stride()));
    }
    if let Some(&id) = m.nodes().iter().find(|&&id| id as usize >= n_nodes) {
        return Err(format!("node id {id} outside the graph's {n_nodes} nodes"));
    }
    if (1..m.len()).any(|r| m.row(r - 1) >= m.row(r)) {
        return Err("candidates out of canonical order".into());
    }
    Ok(())
}

/// K-way merge of one path's per-shard partials (each strictly ascending,
/// checked by [`check_partial`]) into one ascending candidate list of
/// `stride`-node rows. The smallest head row wins,
/// the lowest shard on a tie; a row equal to the one just written is a
/// duplicate and is skipped.
fn merge_partials(parts: &[&PathPartial], stride: usize) -> PathMatches {
    let total: usize = parts.iter().map(|p| p.matches.len()).sum();
    let mut matches = PathMatches::with_capacity(stride, total);
    let mut heads = vec![0usize; parts.len()];
    loop {
        let mut next: Option<(usize, &[u32])> = None;
        for (s, part) in parts.iter().enumerate() {
            if heads[s] < part.matches.len() {
                let row = part.matches.row(heads[s]);
                if next.is_none_or(|(_, best)| row < best) {
                    next = Some((s, row));
                }
            }
        }
        let Some((s, row)) = next else { break };
        let r = heads[s];
        heads[s] += 1;
        if matches.is_empty() || matches.row(matches.len() - 1) != row {
            let part = parts[s];
            matches.push(row.iter().copied(), part.matches.prle()[r], part.matches.prn()[r]);
        }
    }
    matches
}

/// Merges one shard's home-only histogram into the accumulator
/// (element-wise integer sums — exact, order-independent).
fn merge_histogram(hist: &mut FxHashMap<Vec<u16>, Vec<u32>>, entries: Vec<(Vec<u16>, Vec<u32>)>) {
    for (seq, counts) in entries {
        match hist.get_mut(&seq) {
            Some(acc) => {
                for (a, c) in acc.iter_mut().zip(&counts) {
                    *a += c;
                }
            }
            None => {
                hist.insert(seq, counts);
            }
        }
    }
}

impl ShardedGraphStore {
    /// Partitions `peg` into `n_shards` in-process shards and builds each
    /// shard's offline index with `opts` — the library store and the
    /// transport's test double (a server takes one through
    /// `insert_sharded_graph`, never from a request). `n_shards == 1` is
    /// the degenerate single-shard store — same machinery, no boundary
    /// replication.
    pub fn build(peg: Peg, opts: &OfflineOptions, n_shards: usize) -> Result<Self, PegError> {
        if n_shards == 0 {
            return Err(PegError::Invalid("shard count must be at least 1".into()));
        }
        let t0 = Instant::now();
        let (transport, summaries) = InProcessTransport::build(&peg, opts, n_shards)?;
        Ok(Self::assemble(peg, Box::new(transport), summaries, opts, t0))
    }

    /// Binds a store to remote shard workers: sends one `shard_load`
    /// request per worker (built by `load_request(shard, n_shards)` — the
    /// caller supplies the generator spec; requests are issued
    /// concurrently so workers build in parallel) and cross-checks every
    /// worker's full graph against `peg` (node and edge counts must match
    /// — a worker that built a different graph would silently break
    /// bit-exactness, so it is an error instead).
    ///
    /// `peg` is the full graph, which the coordinator keeps for the
    /// global phases; only candidate retrieval goes over the wire.
    pub fn connect(
        peg: Peg,
        opts: &OfflineOptions,
        transport: TcpTransport,
        load_request: impl Fn(usize, usize) -> Json,
    ) -> Result<Self, PegError> {
        if transport.n_shards() == 0 {
            return Err(PegError::Invalid("at least one worker required".into()));
        }
        let t0 = Instant::now();
        let summaries = transport.load(&peg, load_request).map_err(|e| {
            // A partial handshake must not strand shard state on the
            // workers that *did* build: best-effort shard_unload to each
            // (workers that never loaded reply not_found, harmlessly)
            // before dropping the connections with the error.
            transport.release();
            e.into_peg()
        })?;
        Ok(Self::assemble(peg, Box::new(transport), summaries, opts, t0))
    }

    /// The one constructor: a store over `transport`'s shards, as their
    /// summaries describe them. Merging the home-only histograms counts
    /// each indexed path exactly once (at its home shard), so the
    /// element-wise integer sums equal the unsharded index's histogram —
    /// and with it, every cardinality estimate the planner asks for,
    /// bit-for-bit.
    fn assemble(
        peg: Peg,
        transport: Box<dyn ShardTransport>,
        summaries: Vec<ShardSummary>,
        opts: &OfflineOptions,
        started: Instant,
    ) -> Self {
        let n_shards = summaries.len();
        let mut hist: FxHashMap<Vec<u16>, Vec<u32>> = FxHashMap::default();
        let mut per_shard: Vec<ShardInfo> = Vec::with_capacity(n_shards);
        for summary in summaries {
            merge_histogram(&mut hist, summary.hist);
            per_shard.push(summary.info);
        }
        let graph_nodes = peg.graph.n_nodes();
        let total_nodes: usize = per_shard.iter().map(|s| s.nodes).sum();
        let stats = ShardingStats {
            n_shards,
            halo_radius: halo_for(n_shards, opts.index.max_len.max(1)),
            replicated_nodes: total_nodes.saturating_sub(graph_nodes),
            replication_factor: if graph_nodes == 0 {
                1.0
            } else {
                total_nodes as f64 / graph_nodes as f64
            },
            total_index_entries: per_shard.iter().map(|s| s.index_entries).sum(),
            per_shard,
            build_time: started.elapsed(),
        };
        ShardedGraphStore { peg, transport, opts: opts.clone(), hist, stats }
    }

    /// The full probabilistic entity graph (global phases run on it).
    pub fn peg(&self) -> &Peg {
        &self.peg
    }

    /// The offline index configuration every shard was built with.
    /// Live-graph embedders need it to register the store for mutation
    /// (`apply_update` recompiles dirty shards under the same options).
    pub fn offline_options(&self) -> &OfflineOptions {
        &self.opts
    }

    /// Shard count.
    pub fn n_shards(&self) -> usize {
        self.transport.n_shards()
    }

    /// Build-time partition and replication statistics.
    pub fn stats(&self) -> &ShardingStats {
        &self.stats
    }

    /// Per-worker transport counters (`None` for the in-process
    /// transport, which has no wire to measure).
    pub fn worker_stats(&self) -> Option<Vec<WorkerStats>> {
        self.transport.worker_stats()
    }

    /// Releases transport-side resources: for a distributed store, tells
    /// every worker to drop its shard state (best-effort) and closes the
    /// persistent connections. In-process stores free everything on drop
    /// and this is a no-op.
    pub fn release_workers(&self) {
        self.transport.release()
    }

    /// A query pipeline over this store: the same `run` / `run_limited` /
    /// `run_topk` / plan-cache surface as the unsharded pipeline, with
    /// candidate retrieval scattered across the shards.
    pub fn pipeline(&self) -> QueryPipeline<'_> {
        QueryPipeline::with_source(&self.peg, self)
    }

    /// Validates and gathers one scatter's per-shard results into
    /// candidate sets: per path, a k-way merge of the shards' disjoint,
    /// already-sorted home-filtered partials into the canonical candidate
    /// order.
    ///
    /// A failed shard fails the whole retrieval — partial candidate lists
    /// would silently change results; the first failing shard (lowest
    /// index) wins deterministically. So does a reply that does not fit
    /// the plan or the graph ([`check_partial`]): everything downstream
    /// indexes by these ids and trusts this arity and order, so a
    /// misbehaving worker is a structured `ShardUnavailable` here rather
    /// than a panic there. A candidate two shards both ship is dropped
    /// once, defense-in-depth on the same grounds — with correct workers
    /// home sets are disjoint and nothing is dropped. `retrieve_time` is
    /// left zero: the tagged span's own clock is that time
    /// ([`ScatterStats::from_span`]).
    fn gather(
        &self,
        decomp: &Decomposition,
        results: Vec<Result<ShardReply, TransportError>>,
    ) -> Result<(Vec<CandidateSet>, ScatterStats), PegError> {
        let n_paths = decomp.paths.len();
        let n_shards = results.len();
        let n_nodes = self.peg.graph.n_nodes();
        let mut replies: Vec<ShardReply> = Vec::with_capacity(n_shards);
        for (s, reply) in results.into_iter().enumerate() {
            let reply = reply.map_err(|e| e.into_peg())?;
            let unusable = |detail: String| PegError::ShardUnavailable { shard: s, detail };
            if reply.paths.len() != n_paths {
                return Err(unusable(format!(
                    "reply carries {} path partials, expected {n_paths}",
                    reply.paths.len()
                )));
            }
            for (i, (part, path)) in reply.paths.iter().zip(&decomp.paths).enumerate() {
                check_partial(part, path.nodes.len(), n_nodes)
                    .map_err(|e| unusable(format!("path {i}: {e}")))?;
            }
            replies.push(reply);
        }

        let mut scatter = ScatterStats {
            per_shard_raw: vec![0; n_shards],
            per_shard_pruned: vec![0; n_shards],
            ..ScatterStats::default()
        };
        let mut out = Vec::with_capacity(n_paths);
        for (i, path) in decomp.paths.iter().enumerate() {
            let parts: Vec<&PathPartial> = replies.iter().map(|r| &r.paths[i]).collect();
            let mut raw_count = 0usize;
            for (s, part) in parts.iter().enumerate() {
                scatter.per_shard_raw[s] += part.raw_total;
                scatter.per_shard_pruned[s] += part.pruned_total;
                raw_count += part.raw_home;
            }
            let matches = merge_partials(&parts, path.nodes.len());
            scatter.pruned_distinct += matches.len();
            scatter.raw_distinct += raw_count;
            out.push(CandidateSet { matches, raw_count });
        }
        // Survivors a shard's home filter dropped (boundary replicas),
        // plus anything the defensive gather dedup removed.
        scatter.duplicates_dropped =
            scatter.per_shard_pruned.iter().sum::<usize>().saturating_sub(scatter.pruned_distinct);
        Ok((out, scatter))
    }

    /// Applies a mutation batch to this store, returning the successor
    /// store, the mutated reference network (input to the *next*
    /// mutation), and what the update touched. `self` is untouched —
    /// in-flight sessions keep querying the pre-update store while the
    /// caller swaps the successor in.
    ///
    /// `refs` must be the reference network this store's graph was
    /// compiled from and `builder` the compiler it was compiled with;
    /// the successor is then **bit-identical** to a from-scratch
    /// `build`/`connect` over the mutated network: only shards whose
    /// halo ball the dirty set reaches are rebuilt (the rest are carried
    /// by `Arc` in process, or reused worker-side over the wire — see
    /// `shard::affected_shards` for the soundness argument),
    /// and the merged histogram is re-derived from every shard's
    /// home-only counts, so planner estimates match a fresh build's
    /// exactly.
    ///
    /// Distributed stores broadcast `shard_update` at the next version.
    /// On a partial failure the error is returned and `self` stays fully
    /// usable (its retrieves pin the pre-update version, which workers
    /// keep); retrying the update re-sends the same version, which
    /// workers that already applied it acknowledge idempotently.
    pub fn apply_update(
        &self,
        refs: &RefGraph,
        builder: &PegBuilder,
        ops: &[GraphOp],
    ) -> Result<(ShardedGraphStore, RefGraph, UpdateStats), PegError> {
        let t0 = Instant::now();
        let mut new_refs = refs.clone();
        let refs_clone = t0.elapsed();
        let t = Instant::now();
        let touched = new_refs.apply_all(ops).map_err(PegError::Invalid)?;
        let apply_all = t.elapsed();
        let delta = builder.rebuild(&new_refs, &self.peg, &touched)?;
        let (transport, summaries) = self.transport.update(&UpdateRequest {
            ops,
            old: &self.peg,
            new: &delta.peg,
            dirty: &delta.dirty,
            opts: &self.opts,
        })?;
        let update = UpdateStats {
            n_dirty: delta.dirty.iter().filter(|d| **d).count(),
            rebuilt_shards: summaries.iter().filter(|s| s.rebuilt).count(),
            reused_components: delta.reused_components,
            phases: UpdatePhases {
                refs_clone,
                apply_all,
                compile: delta.compile_time,
                existence: delta.existence_time,
                ..Default::default()
            },
        };
        let store = Self::assemble(delta.peg, transport, summaries, &self.opts, t0);
        Ok((store, new_refs, update))
    }
}

impl CandidateSource for ShardedGraphStore {
    fn max_len(&self) -> usize {
        self.opts.index.max_len
    }

    fn beta(&self) -> f64 {
        self.opts.index.beta
    }

    fn estimate_path_count(&self, labels: &[Label], alpha: f64) -> f64 {
        // Mirror `OfflineIndex::estimate_path_count` over the merged
        // histogram: clamp below-β thresholds to β (the on-demand
        // fallback's count is approximated by the count at β, exactly as
        // the unsharded store does), then the shared estimation core.
        // Counts equal the unsharded histogram's, so estimates are
        // bit-identical.
        let index = &self.opts.index;
        let alpha = alpha.max(index.beta);
        let (canonical, palindrome) = pathindex::canonical_label_seq(labels);
        let Some(counts) = self.hist.get(&canonical) else {
            return 0.0;
        };
        pathindex::estimate_from_counts(&index.hist_grid, counts, alpha, palindrome, labels.len())
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
        // Scatter, through the transport seam: every shard answers every
        // path with home-filtered, globalized, canonically sorted
        // partials (see `Shard::retrieve_paths` for the exactness
        // argument).
        let req = ShardRequest { query, decomp, pstats, alpha, span };
        let results = self.transport.scatter(&req, pool);
        let (out, scatter) = self.gather(decomp, results)?;
        if span.is_recording() {
            scatter.tag(span);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pegmatch::model::peg::figure1_refgraph;
    use pegmatch::online::{ExecCache, LocalSource, QueryOptions};
    use std::sync::Arc;

    fn figure1() -> (Peg, OfflineOptions) {
        (
            PegBuilder::new().build(&figure1_refgraph()).unwrap(),
            OfflineOptions::with_len_and_beta(2, 0.01),
        )
    }

    /// The (r, a, i) path query of Figure 1, cut into two 2-node paths.
    fn two_path_plan() -> (QueryGraph, Decomposition) {
        use pegmatch::online::{decompose, DecompStrategy};
        let q = QueryGraph::path(&[Label(1), Label(0), Label(2)]).unwrap();
        let d = decompose(&q, 1, &|_| 1.0, DecompStrategy::CostBased).unwrap();
        assert_eq!(d.paths.len(), 2);
        (q, d)
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Rows `rows` of `set` as one shard's partial.
    fn partial(set: &CandidateSet, rows: &[u32]) -> PathPartial {
        PathPartial {
            raw_total: set.raw_count,
            raw_home: rows.len(),
            pruned_total: rows.len(),
            matches: set.matches.gather(rows),
        }
    }

    #[test]
    fn gather_merges_interleaved_partials_and_drops_a_duplicate_once() {
        let (peg, opts) = figure1();
        let offline = pegmatch::offline::OfflineIndex::build(&peg, &opts).unwrap();
        let (q, d) = two_path_plan();
        let pstats: Vec<PathStats> = d.paths.iter().map(|p| PathStats::new(&q, p)).collect();
        let pool = pegpool::pool_with(1);
        let unsharded = LocalSource { peg: &peg, offline: &offline }
            .retrieve(&q, &d, &pstats, 0.01, &Span::disabled(), &pool)
            .unwrap();
        assert!(unsharded.iter().all(|cs| cs.matches.len() >= 3), "something to interleave");

        // Deal each sorted list out to two shards alternately, and hand
        // the first candidate of every path to both.
        let store = ShardedGraphStore::build(peg, &opts, 2).unwrap();
        let replies: Vec<Result<ShardReply, TransportError>> = (0..2u32)
            .map(|s| {
                let paths = unsharded
                    .iter()
                    .map(|cs| {
                        let rows: Vec<u32> = (0..cs.matches.len() as u32)
                            .filter(|r| r % 2 == s || *r == 0)
                            .collect();
                        partial(cs, &rows)
                    })
                    .collect();
                Ok(ShardReply { paths })
            })
            .collect();
        let (merged, scatter) = store.gather(&d, replies).unwrap();
        let mut dropped = 0;
        for (got, want) in merged.iter().zip(&unsharded) {
            assert_eq!(got.matches, want.matches);
            assert_eq!(bits(got.matches.prle()), bits(want.matches.prle()));
            assert_eq!(bits(got.matches.prn()), bits(want.matches.prn()));
            // Each path's duplicate was shipped twice and kept once.
            assert_eq!(got.raw_count, want.matches.len() + 1);
            dropped += 1;
        }
        assert_eq!(scatter.duplicates_dropped, dropped);
        assert_eq!(
            scatter.pruned_distinct,
            unsharded.iter().map(|cs| cs.matches.len()).sum::<usize>()
        );
    }

    /// A transport that answers like the in-process one, except that
    /// `damage` rewrites shard 1's reply on the way back — a misbehaving
    /// worker.
    struct Scripted {
        inner: InProcessTransport,
        damage: Damage,
    }

    type Damage = fn(&mut ShardReply);

    impl ShardTransport for Scripted {
        fn n_shards(&self) -> usize {
            self.inner.n_shards()
        }

        fn scatter(
            &self,
            req: &ShardRequest<'_>,
            pool: &ThreadPool,
        ) -> Vec<Result<ShardReply, TransportError>> {
            let mut replies = self.inner.scatter(req, pool);
            (self.damage)(replies[1].as_mut().expect("in-process shards answer"));
            replies
        }

        fn update(
            &self,
            _req: &UpdateRequest<'_>,
        ) -> Result<(Box<dyn ShardTransport>, Vec<ShardSummary>), PegError> {
            Err(PegError::Invalid("the scripted transport does not update".into()))
        }
    }

    /// The first non-empty partial of a reply.
    fn some_partial(reply: &mut ShardReply) -> &mut PathPartial {
        reply
            .paths
            .iter_mut()
            .find(|p| !p.matches.is_empty())
            .expect("shard 1 is home to something")
    }

    #[test]
    fn a_malformed_worker_reply_is_a_structured_error_and_caches_nothing() {
        let damages: [(&str, Damage); 4] = [
            ("nodes for a path of", |reply| {
                // Wrong arity: every candidate one node too long.
                let part = some_partial(reply);
                let mut wide = PathMatches::new(part.matches.stride() + 1);
                for m in &part.matches {
                    wide.push(m.nodes.iter().copied().chain([0]), m.prle, m.prn);
                }
                part.matches = wide;
            }),
            ("outside the graph", |reply| {
                some_partial(reply).matches.nodes_mut()[0] = 1_000_000;
            }),
            ("canonical order", |reply| {
                // The same candidate twice in one partial.
                let part = some_partial(reply);
                part.matches = part.matches.gather(&[0, 0]);
            }),
            ("path partials", |reply| {
                reply.paths.pop();
            }),
        ];
        let (q, _) = two_path_plan();
        let options = QueryOptions::with_threads(1);
        for (what, damage) in damages {
            let (peg, opts) = figure1();
            let (inner, summaries) = InProcessTransport::build(&peg, &opts, 2).unwrap();
            let transport = Box::new(Scripted { inner, damage });
            let store =
                ShardedGraphStore::assemble(peg, transport, summaries, &opts, Instant::now());
            let cache = Arc::new(ExecCache::new(1 << 20));
            // Twice: the second sight is the one that would admit.
            for _ in 0..2 {
                let outcome =
                    store.pipeline().with_exec_cache(cache.clone(), 1).run(&q, 0.05, &options);
                match outcome {
                    Err(PegError::ShardUnavailable { shard: 1, detail }) => {
                        assert!(detail.contains(what), "{what}: {detail}")
                    }
                    other => panic!("{what}: expected shard 1 unavailable, got {other:?}"),
                }
            }
            let stats = cache.stats();
            assert_eq!((stats.entries, stats.bytes), (0, 0), "{what}: a failed scatter cached");
        }

        // The same store shape, undamaged: the query answers and, seen a
        // second time, its floor base is cached — the path above did reach
        // the cache.
        let (peg, opts) = figure1();
        let (inner, summaries) = InProcessTransport::build(&peg, &opts, 2).unwrap();
        let transport = Box::new(Scripted { inner, damage: |_| {} });
        let store = ShardedGraphStore::assemble(peg, transport, summaries, &opts, Instant::now());
        let cache = Arc::new(ExecCache::new(1 << 20));
        for _ in 0..2 {
            let res = store.pipeline().with_exec_cache(cache.clone(), 1).run(&q, 0.05, &options);
            assert!(!res.unwrap().matches.is_empty());
        }
        assert_eq!(cache.stats().entries, 1);
    }
}
