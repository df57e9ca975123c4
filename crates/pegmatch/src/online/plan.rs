//! Prepared query plans and the shape-keyed plan cache.
//!
//! A [`PreparedQuery`] is the alpha-independent, data-independent part of
//! answering a query: the canonicalized shape, the path decomposition, and
//! the per-path query statistics. Preparing is the planning work that
//! repeated queries of the same *shape* keep re-paying — so plans are
//! cacheable and shareable across calls (and, in a serving setting, across
//! users) through a [`PlanCache`] keyed by the query's canonical form.
//!
//! Plans are stored in canonical node numbering: any query isomorphic to a
//! cached shape (same labels and edges under some variable renumbering)
//! hits the same entry, and the cached decomposition is renumbered through
//! the query's canonical permutation on the way out. A label-preserving
//! renumbering maps covering paths to covering paths, so the renumbered
//! plan is a valid decomposition of the hitting query.

use crate::error::PegError;
use crate::online::candidates::PathStats;
use crate::online::decompose::{DecompStrategy, Decomposition};
use crate::online::generate::JoinOrder;
use crate::query::{CanonicalForm, QNode, QueryGraph};
use graphstore::hash::FxHashMap;
use graphstore::Label;
use std::sync::Mutex;
use std::time::Duration;

/// The cacheable, execution-independent plan for one query: decomposition,
/// per-path statistics, and (when planned through a cache) the canonical
/// shape identity. Built by [`QueryPipeline::prepare`]; consumed by
/// [`QuerySession`]s, any number of which may run over one plan.
///
/// [`QueryPipeline::prepare`]: crate::online::QueryPipeline::prepare
/// [`QuerySession`]: crate::online::QuerySession
#[derive(Clone, Debug)]
pub struct PreparedQuery {
    pub(crate) query: QueryGraph,
    pub(crate) decomp: Decomposition,
    /// Partition join order, fixed at plan time from the index's cost
    /// estimates. Pinning the order to the plan (rather than per-run alive
    /// counts) makes every execution of the plan — one-shot, cached-plan,
    /// or incremental top-k — multiply `w1` weights in the same order, so
    /// results agree bit-for-bit.
    pub(crate) order: Vec<usize>,
    pub(crate) pstats: Vec<PathStats>,
    pub(crate) decompose_time: Duration,
    pub(crate) shape_hash: Option<u64>,
    pub(crate) from_cache: bool,
    /// The query's canonical form, retained when any shape-keyed cache
    /// (plan or execution) is attached to the preparing pipeline. `None`
    /// means shape-keyed execution caching is skipped for this plan.
    pub(crate) canon: Option<CanonicalForm>,
}

impl PreparedQuery {
    /// The query this plan was prepared for.
    pub fn query(&self) -> &QueryGraph {
        &self.query
    }

    /// The plan's decomposition.
    pub fn decomposition(&self) -> &Decomposition {
        &self.decomp
    }

    /// Number of decomposition paths.
    pub fn n_paths(&self) -> usize {
        self.decomp.paths.len()
    }

    /// The plan's partition join order.
    pub fn join_order(&self) -> &[usize] {
        &self.order
    }

    /// Per-path statistics, aligned with the decomposition's paths. A
    /// session's retrieval passes exactly these to its
    /// [`CandidateSource`](crate::online::CandidateSource), so a caller
    /// can retrieve a prepared plan's candidates with the precise
    /// arguments a session would use.
    pub fn path_stats(&self) -> &[PathStats] {
        &self.pstats
    }

    /// Canonical shape fingerprint (present when planned through a cache).
    pub fn shape_hash(&self) -> Option<u64> {
        self.shape_hash
    }

    /// True when the decomposition came out of a [`PlanCache`] rather than
    /// being computed for this call.
    pub fn from_cache(&self) -> bool {
        self.from_cache
    }

    /// End-to-end planning time of the `prepare` call that built this
    /// plan: validation, canonicalization and cache lookup (when a cache
    /// is attached), decomposition + join ordering on a miss or plan
    /// renumbering on a hit, and path-statistics construction. Hits skip
    /// the decomposition itself, which is what makes this small for them.
    pub fn decompose_time(&self) -> Duration {
        self.decompose_time
    }
}

/// Exact cache key: canonical shape plus the planning knobs that change
/// the decomposition. The full canonical form (not a hash) keys the map,
/// so distinct shapes can never collide.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct PlanKey {
    labels: Vec<Label>,
    edges: Vec<(QNode, QNode)>,
    strategy: DecompStrategy,
    join_order: JoinOrder,
    max_len: usize,
}

/// One cached plan, in canonical node numbering. The join order is over
/// partition indices, which renumbering leaves untouched. The
/// decomposition sits behind an `Arc` so hits can renumber it outside the
/// cache lock.
#[derive(Debug)]
struct CachedPlan {
    decomp: std::sync::Arc<Decomposition>,
    order: Vec<usize>,
    shape_hash: u64,
    build_time: Duration,
    hits: u64,
    /// Logical clock value of the entry's last lookup or insertion; the
    /// eviction victim is the minimum (true LRU).
    last_used: u64,
}

#[derive(Debug, Default)]
struct PlanCacheInner {
    map: FxHashMap<PlanKey, CachedPlan>,
    /// Logical clock: bumped once per lookup/insertion touch.
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    saved: Duration,
}

impl PlanCacheInner {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

/// Snapshot of a [`PlanCache`]'s counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlanCacheStats {
    /// Lookups that found a cached plan.
    pub hits: u64,
    /// Lookups that had to plan from scratch.
    pub misses: u64,
    /// Distinct shapes cached.
    pub entries: usize,
    /// Shapes evicted to stay within the capacity bound.
    pub evictions: u64,
    /// Planning time avoided: the sum, over hits, of the hit entry's
    /// original decomposition cost.
    pub saved: Duration,
}

impl PlanCacheStats {
    /// Hit fraction in `[0, 1]` (`0` before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Per-shape usage line for diagnostics (`pegcli --plan-cache-stats`).
#[derive(Clone, Debug)]
pub struct PlanCacheEntry {
    /// The cached shape, as its canonical query graph.
    pub shape: QueryGraph,
    /// Canonical shape fingerprint.
    pub shape_hash: u64,
    /// Times this entry served a lookup.
    pub hits: u64,
    /// Decomposition paths in the cached plan.
    pub n_paths: usize,
    /// What planning this shape cost when it missed.
    pub build_time: Duration,
}

/// A concurrent cache of prepared plans, keyed by canonical query shape
/// (plus decomposition strategy and index path length). One cache belongs
/// to one graph + offline index — plans embed cost estimates from that
/// index's histograms, and reusing them elsewhere would mis-plan (never
/// mis-answer: any covering decomposition yields the same matches).
///
/// Thresholds are deliberately *not* part of the key: the decomposition is
/// chosen with the first caller's threshold, and reusing it at any other
/// threshold is sound for the same reason the incremental top-k reuses its
/// plan across refinements.
///
/// Capacity is bounded ([`PlanCache::with_capacity`]; default 1024
/// shapes): inserting past the bound evicts the least-recently-used entry
/// (true LRU — recency, not hit count — so a long-lived server ages out
/// shapes that *were* hot but stopped arriving), and a diverse or
/// adversarial query stream cannot grow the cache without limit. Eviction
/// counts surface in [`PlanCacheStats::evictions`].
#[derive(Debug)]
pub struct PlanCache {
    inner: Mutex<PlanCacheInner>,
    max_entries: usize,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }
}

impl PlanCache {
    /// Default capacity bound (distinct shapes).
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// An empty cache with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache holding at most `max_entries` shapes (min 1).
    pub fn with_capacity(max_entries: usize) -> Self {
        Self { inner: Mutex::new(PlanCacheInner::default()), max_entries: max_entries.max(1) }
    }

    /// Looks up the plan for `canon`'s shape; on a miss, plans via `build`,
    /// which must produce a decomposition in *canonical* numbering (plan
    /// the query `canon.to_query()`), and caches it as-is. Either way the
    /// returned decomposition is renumbered into the query's numbering
    /// through `canon.inverse()` — hit and miss hand back byte-identical
    /// plans, so downstream generation order is shape-determined.
    pub(crate) fn plan_for(
        &self,
        canon: &CanonicalForm,
        strategy: DecompStrategy,
        join_order: JoinOrder,
        max_len: usize,
        build: impl FnOnce() -> Result<(Decomposition, Vec<usize>, Duration), PegError>,
    ) -> Result<(Decomposition, Vec<usize>, bool), PegError> {
        let key = PlanKey {
            labels: canon.labels.clone(),
            edges: canon.edges.clone(),
            strategy,
            join_order,
            max_len,
        };
        let hit = {
            let mut inner = self.inner.lock().unwrap();
            let now = inner.next_tick();
            match inner.map.get_mut(&key) {
                Some(entry) => {
                    entry.hits += 1;
                    entry.last_used = now;
                    let build_time = entry.build_time;
                    // Only ref-count bumps under the lock; the renumbering
                    // allocation happens outside it.
                    let plan = (entry.decomp.clone(), entry.order.clone());
                    inner.hits += 1;
                    inner.saved += build_time;
                    Some(plan)
                }
                None => {
                    inner.misses += 1;
                    None
                }
            }
        };
        if let Some((canonical, order)) = hit {
            // Cached plans are canonical; renumber into this query.
            return Ok((canonical.renumbered(&canon.inverse()), order, true));
        }
        // Plan outside the lock (planning can be slow); a racing miss on
        // the same shape computes the same canonical plan, so last-write
        // -wins insertion is harmless.
        let (decomp, order, build_time) = build()?;
        let canonical = std::sync::Arc::new(decomp);
        let mut inner = self.inner.lock().unwrap();
        if !inner.map.contains_key(&key) && inner.map.len() >= self.max_entries {
            // Evict the least-recently-used shape (ticks are unique, so
            // the victim is unambiguous); O(n) scan is fine at
            // cache-bound sizes.
            if let Some(victim) =
                inner.map.iter().min_by_key(|(_, p)| p.last_used).map(|(k, _)| k.clone())
            {
                inner.map.remove(&victim);
                inner.evictions += 1;
            }
        }
        let now = inner.next_tick();
        inner.map.insert(
            key,
            CachedPlan {
                decomp: canonical.clone(),
                order: order.clone(),
                shape_hash: canon.hash64(),
                build_time,
                hits: 0,
                last_used: now,
            },
        );
        drop(inner);
        Ok((canonical.renumbered(&canon.inverse()), order, false))
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PlanCacheStats {
        let inner = self.inner.lock().unwrap();
        PlanCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.map.len(),
            evictions: inner.evictions,
            saved: inner.saved,
        }
    }

    /// Per-entry usage, most-hit first.
    pub fn entries(&self) -> Vec<PlanCacheEntry> {
        let inner = self.inner.lock().unwrap();
        let mut out: Vec<PlanCacheEntry> = inner
            .map
            .iter()
            .map(|(key, plan)| {
                let shape = QueryGraph::new(key.labels.clone(), key.edges.clone())
                    .expect("cached shapes are valid queries");
                PlanCacheEntry {
                    shape,
                    shape_hash: plan.shape_hash,
                    hits: plan.hits,
                    n_paths: plan.decomp.paths.len(),
                    build_time: plan.build_time,
                }
            })
            .collect();
        out.sort_by(|a, b| b.hits.cmp(&a.hits).then(a.shape_hash.cmp(&b.shape_hash)));
        out
    }

    /// Drops every cached plan (counters survive).
    pub fn clear(&self) {
        self.inner.lock().unwrap().map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u16) -> Label {
        Label(i)
    }

    fn plan_for(cache: &PlanCache, q: &QueryGraph) -> (Decomposition, bool) {
        let canon = q.canonical_form();
        // Build plans the canonical-numbered query, per the plan_for contract.
        let cq = canon.to_query();
        let (d, _order, hit) = cache
            .plan_for(&canon, DecompStrategy::CostBased, JoinOrder::Heuristic, 2, || {
                let d = crate::online::decompose::decompose(
                    &cq,
                    2,
                    &|_| 1.0,
                    DecompStrategy::CostBased,
                )?;
                let order = (0..d.paths.len()).collect();
                Ok((d, order, Duration::from_micros(10)))
            })
            .unwrap();
        (d, hit)
    }

    #[test]
    fn isomorphic_queries_share_an_entry() {
        let cache = PlanCache::new();
        let q1 = QueryGraph::path(&[l(0), l(1), l(2)]).unwrap();
        // Same labeled shape, different numbering.
        let q2 = QueryGraph::new(vec![l(2), l(1), l(0)], vec![(0, 1), (1, 2)]).unwrap();
        let (_, hit1) = plan_for(&cache, &q1);
        let (d2, hit2) = plan_for(&cache, &q2);
        assert!(!hit1);
        assert!(hit2, "isomorphic shape must hit");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!(s.saved > Duration::ZERO);
        assert!(s.hit_rate() > 0.49 && s.hit_rate() < 0.51);
        // The returned decomposition is in q2's numbering: every path node
        // carries q2's labels consistently.
        for p in &d2.paths {
            for &n in &p.nodes {
                assert!((n as usize) < q2.n_nodes());
            }
        }
        let mut covered: Vec<(QNode, QNode)> =
            d2.paths.iter().flat_map(|p| p.edges().collect::<Vec<_>>()).collect();
        covered.sort_unstable();
        covered.dedup();
        assert_eq!(covered, q2.edges().to_vec());
    }

    #[test]
    fn different_shapes_get_different_entries() {
        let cache = PlanCache::new();
        let path = QueryGraph::path(&[l(0), l(0), l(0)]).unwrap();
        let tri = QueryGraph::cycle(&[l(0), l(0), l(0)]).unwrap();
        let (_, h1) = plan_for(&cache, &path);
        let (_, h2) = plan_for(&cache, &tri);
        assert!(!h1 && !h2);
        assert_eq!(cache.stats().entries, 2);
        let entries = cache.entries();
        assert_eq!(entries.len(), 2);
        assert_ne!(entries[0].shape_hash, entries[1].shape_hash);
    }

    #[test]
    fn capacity_bound_evicts_least_recently_used_shape() {
        let cache = PlanCache::with_capacity(2);
        let hot = QueryGraph::path(&[l(0), l(1)]).unwrap();
        let cold = QueryGraph::path(&[l(1), l(1)]).unwrap();
        let newcomer = QueryGraph::path(&[l(0), l(0)]).unwrap();
        let _ = plan_for(&cache, &hot);
        let _ = plan_for(&cache, &cold);
        let _ = plan_for(&cache, &hot); // recency: cold < hot
        let (_, was_hit) = plan_for(&cache, &newcomer); // evicts cold
        assert!(!was_hit);
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.evictions, 1);
        // The recently-used shape survived; the stale one re-plans.
        let (_, hot_hit) = plan_for(&cache, &hot);
        assert!(hot_hit);
        let (_, cold_hit) = plan_for(&cache, &cold);
        assert!(!cold_hit, "least-recently-used shape must have been evicted");
    }

    #[test]
    fn eviction_is_by_recency_not_hit_count() {
        // A shape with many old hits ages out in favor of a newer shape
        // with fewer — the serving behavior least-hit eviction got wrong
        // (a formerly-hot shape could pin its slot forever).
        let cache = PlanCache::with_capacity(2);
        let former_hot = QueryGraph::path(&[l(0), l(1)]).unwrap();
        let recent = QueryGraph::path(&[l(1), l(1)]).unwrap();
        let newcomer = QueryGraph::path(&[l(0), l(0)]).unwrap();
        let _ = plan_for(&cache, &former_hot);
        let _ = plan_for(&cache, &former_hot);
        let _ = plan_for(&cache, &former_hot); // 2 hits, but goes stale now
        let _ = plan_for(&cache, &recent); // 0 hits, most recent
        let _ = plan_for(&cache, &newcomer); // must evict former_hot (LRU)
        let (_, recent_hit) = plan_for(&cache, &recent);
        assert!(recent_hit, "recently-used shape survives despite fewer hits");
        let (_, former_hit) = plan_for(&cache, &former_hot);
        assert!(!former_hit, "stale shape is evicted despite more hits");
    }

    #[test]
    fn clear_drops_entries_but_not_counters() {
        let cache = PlanCache::new();
        let q = QueryGraph::path(&[l(0), l(1)]).unwrap();
        let _ = plan_for(&cache, &q);
        let _ = plan_for(&cache, &q);
        assert_eq!(cache.stats().hits, 1);
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().hits, 1);
        let (_, hit) = plan_for(&cache, &q);
        assert!(!hit, "cleared entries must re-plan");
    }
}
