//! The retrieval the flat candidate set replaced, kept verbatim as the
//! test oracle: one heap-allocated [`PathMatch`] per candidate, the whole
//! raw list sorted by pointer-chasing `Vec` compares *before* pruning, and
//! the node-bound memo a 16-way mutex-sharded hash map that re-derives each
//! query node's required labels on every miss. `equivalence` in the parent
//! module's tests holds the flat path to this one bit for bit.

use super::{bound_keeps, PathStats};
use crate::offline::OfflineIndex;
use crate::online::decompose::QueryPath;
use crate::query::{QNode, QueryGraph};
use crate::Peg;
use graphstore::hash::FxHashMap;
use graphstore::{EntityId, Label};
use pathindex::PathMatch;
use pegpool::ThreadPool;
use std::sync::Mutex;

/// Number of lock shards in [`NodeCandidateCache`]; a power of two so the
/// shard pick is a mask.
const CACHE_SHARDS: usize = 16;

/// One path's retrieval, the way every source used to spell it.
pub struct Retrieved {
    /// Survivors in canonical order.
    pub matches: Vec<PathMatch>,
    /// Raw candidates before pruning.
    pub raw_count: usize,
}

/// Lookup, sort of the whole raw list, then the prune through `cache`.
pub fn retrieve(
    peg: &Peg,
    offline: &OfflineIndex,
    query: &QueryGraph,
    path: &QueryPath,
    cache: &NodeCandidateCache,
    alpha: f64,
) -> Retrieved {
    let stats = PathStats::new(query, path);
    let pool = pegpool::pool_with(1);
    let mut matches = offline.path_matches(peg, &path.labels(query), alpha).to_vec();
    let raw_count = matches.len();
    sort_candidates(&mut matches);
    prune_candidates(peg, offline, query, path, &stats, alpha, cache, &pool, &mut matches);
    Retrieved { matches, raw_count }
}

/// Sorts path matches into the canonical candidate order every source
/// emits: ascending node sequences. Sequences are unique per retrieval, so
/// an unstable sort is deterministic.
pub fn sort_candidates(matches: &mut [PathMatch]) {
    matches.sort_unstable_by(|a, b| a.nodes.cmp(&b.nodes));
}

/// Memoized node-level candidacy bounds (`v ∈ cn(n)`), shared by every
/// worker retrieving candidates for one query execution.
///
/// The memo stores each pair's α-independent bound (see
/// `node_candidate_bound`) rather than a pass/fail bit, so one cache
/// serves every threshold an execution evaluates. It is sharded by entity
/// id so concurrent path workers contend on different locks; a race merely
/// recomputes the (pure) bound and both writers store the same bits, so
/// results never depend on scheduling.
#[derive(Debug, Default)]
pub struct NodeCandidateCache {
    shards: [Mutex<FxHashMap<(QNode, u32), f64>>; CACHE_SHARDS],
}

impl NodeCandidateCache {
    /// Fresh cache (one per query execution).
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn shard(&self, v: EntityId) -> &Mutex<FxHashMap<(QNode, u32), f64>> {
        // Fibonacci-hash the id so consecutive entities spread over shards.
        let h = (v.0 as usize).wrapping_mul(0x9e37_79b9) >> 16;
        &self.shards[h & (CACHE_SHARDS - 1)]
    }

    /// The memoized node-level bound for `(n, v)` — NaN when `v` fails a
    /// structural (α-independent) test.
    pub fn bound(
        &self,
        peg: &Peg,
        offline: &OfflineIndex,
        query: &QueryGraph,
        n: QNode,
        v: EntityId,
    ) -> f64 {
        if let Some(&hit) = self.shard(v).lock().unwrap().get(&(n, v.0)) {
            return hit;
        }
        let b = node_candidate_bound(peg, offline, query, n, v);
        self.shard(v).lock().unwrap().insert((n, v.0), b);
        b
    }
}

/// The node-level pruning tests of Section 5.2.2, folded into a single
/// α-independent value: NaN when a structural test fails (no label
/// support, or too few `σ`-capable neighbors for some required `σ`),
/// otherwise the minimum over required labels of
/// `Pr(v.l = lQ(n)) · fpu(v,σ)^{c(n,σ)}` (`+∞` when nothing is required).
/// `v` passes node-level pruning at `alpha` iff
/// [`bound_keeps`]`(bound, alpha)` — each per-σ test is `bound_σ + EPS ≥
/// α`, and a conjunction of such tests is the same test on their minimum.
fn node_candidate_bound(
    peg: &Peg,
    offline: &OfflineIndex,
    query: &QueryGraph,
    n: QNode,
    v: EntityId,
) -> f64 {
    let label_prob = peg.graph.label_prob(v, query.label(n));
    if label_prob <= 0.0 {
        return f64::NAN;
    }
    let ctx = &offline.context;
    let mut min_bound = f64::INFINITY;
    for sigma_idx in 0..ctx.n_labels() {
        let sigma = Label(sigma_idx as u16);
        let required = query.neighbor_label_count(n, sigma) as u32;
        if required == 0 {
            continue;
        }
        if ctx.c(v, sigma) < required {
            return f64::NAN;
        }
        // The paper prints fpu^{c(v,σ)}; the sound exponent is the query's
        // requirement c(n,σ) (see DESIGN.md).
        let bound = label_prob * ctx.fpu(v, sigma).powi(required as i32);
        if bound < min_bound {
            min_bound = bound;
        }
    }
    min_bound
}

/// The combined candidate predicate of Section 5.2.2 as a keep-bound per
/// raw candidate, evaluated in contiguous chunks over `pool`.
///
/// `scores[i]` is NaN when `raw[i]` is rejected at `alpha` (a structural
/// failure, or any threshold quantity falling below `alpha` — the scorer
/// short-circuits there, exactly like the boolean predicate used to);
/// otherwise it is the exact keep-bound
/// `min(prle·prn, node bounds…, prle·prn·pu·cpr)`, which re-answers the
/// whole predicate for every `α' ≥ alpha` via [`bound_keeps`].
#[allow(clippy::too_many_arguments)]
fn candidate_scores(
    peg: &Peg,
    offline: &OfflineIndex,
    query: &QueryGraph,
    path: &QueryPath,
    stats: &PathStats,
    alpha: f64,
    node_cache: &NodeCandidateCache,
    pool: &ThreadPool,
    raw: &[PathMatch],
) -> Vec<f64> {
    let score = |pm: &PathMatch| -> f64 {
        // 0. The raw-retrieval threshold (relevant when `raw` is a
        // superset fetched at a lower threshold).
        let p = pm.prle * pm.prn;
        let mut bound = p;
        if !bound_keeps(bound, alpha) {
            return f64::NAN;
        }
        // 1. Node-level candidacy at every position. The running minimum
        // reproduces each positional test: it drops below alpha exactly
        // when some position's bound does.
        for (pos, &v) in pm.nodes.iter().enumerate() {
            let nb = node_cache.bound(peg, offline, query, path.nodes[pos], v);
            if nb.is_nan() {
                return f64::NAN;
            }
            if nb < bound {
                bound = nb;
                if !bound_keeps(bound, alpha) {
                    return f64::NAN;
                }
            }
        }
        // 2. Path-level probability bound.
        let pu = path_neighborhood_bound(peg, offline, query, pm, stats);
        if pu == 0.0 {
            return f64::NAN;
        }
        let cpr = cycle_probability(peg, query, path, pm, stats);
        if cpr == 0.0 {
            return f64::NAN;
        }
        let combined = p * pu * cpr;
        if combined < bound {
            bound = combined;
        }
        if !bound_keeps(bound, alpha) {
            return f64::NAN;
        }
        bound
    };

    if pool.lanes() > 1 && raw.len() >= 64 {
        let chunks = pool.chunks(raw.len(), 4);
        pool.map(chunks.len(), |ci| raw[chunks[ci].clone()].iter().map(score).collect::<Vec<_>>())
            .into_iter()
            .flatten()
            .collect()
    } else {
        raw.iter().map(score).collect()
    }
}

/// Context pruning that consumes the raw retrieval: survivors — the
/// candidates whose score is not NaN — are compacted in place (one
/// `retain` pass, no clones).
#[allow(clippy::too_many_arguments)]
pub fn prune_candidates(
    peg: &Peg,
    offline: &OfflineIndex,
    query: &QueryGraph,
    path: &QueryPath,
    stats: &PathStats,
    alpha: f64,
    node_cache: &NodeCandidateCache,
    pool: &ThreadPool,
    raw: &mut Vec<PathMatch>,
) {
    let scores = candidate_scores(peg, offline, query, path, stats, alpha, node_cache, pool, raw);
    let mut it = scores.into_iter();
    raw.retain(|_| !it.next().expect("scores cover raw").is_nan());
}

/// `pu(Pu)`: upper bound on the probability of matching the path's query
/// neighborhood (Section 5.2.2).
pub fn path_neighborhood_bound(
    peg: &Peg,
    offline: &OfflineIndex,
    query: &QueryGraph,
    pm: &PathMatch,
    stats: &PathStats,
) -> f64 {
    let _ = peg;
    let ctx = &offline.context;
    let mut pu = 1.0;
    for (m, rv) in &stats.neighbors {
        let lm = query.label(*m);
        // pu(n, m, Pu) = fpu(ψ(n), lm) · Π_{n' ≠ n} ppu(ψ(n'), lm);
        // take the tightest over n ∈ rv(P, m).
        let ppu_all: f64 = rv.iter().map(|&pos| ctx.ppu(pm.nodes[pos], lm)).product();
        let mut best = f64::INFINITY;
        for &pos in rv {
            let ppu_n = ctx.ppu(pm.nodes[pos], lm);
            let val = if ppu_n > 0.0 { ctx.fpu(pm.nodes[pos], lm) * ppu_all / ppu_n } else { 0.0 };
            if val < best {
                best = val;
            }
        }
        pu *= best;
        if pu == 0.0 {
            return 0.0;
        }
    }
    pu
}

/// `cpr(Pu)`: exact probability of the cycle edges closed by the path.
pub fn cycle_probability(
    peg: &Peg,
    query: &QueryGraph,
    path: &QueryPath,
    pm: &PathMatch,
    stats: &PathStats,
) -> f64 {
    let mut p = 1.0;
    for &(i, j) in &stats.cycles {
        let (u, v) = (pm.nodes[i], pm.nodes[j]);
        let (lu, lv) = (query.label(path.nodes[i]), query.label(path.nodes[j]));
        p *= peg.graph.edge_prob(u, v, lu, lv);
        if p == 0.0 {
            return 0.0;
        }
    }
    p
}
