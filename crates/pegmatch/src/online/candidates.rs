//! Finding and pruning path candidates (Section 5.2.2).
//!
//! For each decomposition path, candidates come from the path index
//! (threshold α) as one flat [`PathMatches`] — a node arena with stride =
//! path length plus `prle` / `prn` columns — and stay in that shape through
//! pruning and the shard reply to the join. Two
//! context-based pruning layers follow the lookup:
//!
//! * **node-level** — a graph node `v` can match query node `n` only when,
//!   for every label `σ` required around `n`, `v` has enough `σ`-capable
//!   neighbors (`c(v,σ) ≥ c(n,σ)`) and the probability bound
//!   `Pr(v.l = lQ(n)) · fpu(v,σ)^{c(n,σ)} ≥ α` holds;
//! * **path-level** — the candidate path's own probability times the
//!   neighborhood upper bound `pu(Pu)` and cycle-edge probability
//!   `cpr(Pu)` must reach α.
//!
//! Every threshold test above has the form `q + EPS ≥ α` for some
//! α-independent quantity `q`, so a candidate's **keep-bound** — the
//! minimum of those quantities — captures the whole predicate: the
//! candidate survives pruning at `α'` iff `keep_bound + EPS ≥ α'`
//! ([`bound_keeps`]), by monotonicity of `min`. The prune scores each raw
//! candidate by that one `f64` and keeps the rows it admits.
//!
//! [`retrieve_candidates`] is the one lookup → prune → sort every source
//! runs. It **prunes first and sorts only the survivors**: the canonical
//! candidate order (ascending node sequence) is a total order on unique
//! sequences, so filtering then sorting gives the list sorting then
//! filtering would, and the sort — on `(packed key, row)` pairs, no
//! pointer chasing — never touches the raw candidates pruning discards.

#[cfg(test)]
mod reference;

use crate::offline::OfflineIndex;
use crate::online::decompose::QueryPath;
use crate::query::{QNode, QueryGraph};
use crate::Peg;
use graphstore::hash::FxHashMap;
use graphstore::{EntityId, Label};
use pathindex::PathMatches;
use pegpool::ThreadPool;
use pegtrace::Span;
use std::alloc::{alloc_zeroed, handle_alloc_error, Layout};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

const EPS: f64 = 1e-12;

/// Pre-derived query-side statistics for one decomposition path
/// (path neighbors, reverse path neighbors, path cycles — Section 5.2.2).
#[derive(Clone, Debug)]
pub struct PathStats {
    /// `Γ(P)`: off-path query nodes adjacent to the path, with their
    /// reverse path neighbors `rv(P, m)` as *positions on the path*.
    pub neighbors: Vec<(QNode, Vec<usize>)>,
    /// Cycle edges: query edges between non-consecutive path nodes, as
    /// position pairs; each such edge appears exactly once.
    pub cycles: Vec<(usize, usize)>,
    /// Per path position: the labels `σ` the query requires around that
    /// query node with their counts `c(n,σ)`, ascending in `σ` — what the
    /// node-level test loops over, derived here once instead of per probed
    /// graph node.
    pub required: Vec<Vec<(Label, u32)>>,
}

impl PathStats {
    /// Derives the statistics of `path` within `query`.
    ///
    /// Both lists come out in a **renumbering-invariant order**: neighbors
    /// sorted by `(label, rv)`, cycles by position pair. The pruning
    /// bounds multiply over these lists, and float products depend on
    /// operand order — a query-numbering-dependent order would make the
    /// computed bounds (and with them borderline pruning decisions) differ
    /// between isomorphic queries sharing one cached canonical plan.
    /// Neighbors tied on `(label, rv)` contribute bit-identical factors
    /// (the bound is a function of exactly those two), so the order among
    /// ties is immaterial.
    pub fn new(query: &QueryGraph, path: &QueryPath) -> Self {
        let on_path = |n: QNode| path.position(n);
        let mut neighbors: Vec<(QNode, Vec<usize>)> = Vec::new();
        let mut seen_off: FxHashMap<QNode, usize> = FxHashMap::default();
        let mut cycles = Vec::new();
        let path_edges: Vec<(QNode, QNode)> = path.edges().collect();

        for (pos, &n) in path.nodes.iter().enumerate() {
            for &m in query.neighbors(n) {
                match on_path(m) {
                    None => {
                        let idx = *seen_off.entry(m).or_insert_with(|| {
                            neighbors.push((m, Vec::new()));
                            neighbors.len() - 1
                        });
                        neighbors[idx].1.push(pos);
                    }
                    Some(mpos) => {
                        let key = (n.min(m), n.max(m));
                        if path_edges.contains(&key) {
                            continue; // A path edge, not a cycle edge.
                        }
                        // Assign each cycle edge to its smaller position.
                        if pos < mpos {
                            cycles.push((pos, mpos));
                        }
                    }
                }
            }
        }
        neighbors.sort_by(|(a, rva), (b, rvb)| {
            query.label(*a).0.cmp(&query.label(*b).0).then_with(|| rva.cmp(rvb))
        });
        cycles.sort_unstable();
        let required = path
            .nodes
            .iter()
            .map(|&n| {
                let mut around: Vec<Label> =
                    query.neighbors(n).iter().map(|&m| query.label(m)).collect();
                around.sort_unstable();
                let mut counted: Vec<(Label, u32)> = Vec::new();
                for sigma in around {
                    match counted.last_mut() {
                        Some((last, count)) if *last == sigma => *count += 1,
                        _ => counted.push((sigma, 1)),
                    }
                }
                counted
            })
            .collect();
        Self { neighbors, cycles, required }
    }
}

/// Cell value of a `NodeBoundMemo` row no bound has been stored in. Cells
/// hold a bound's bit pattern inverted, so a freshly zeroed row reads as
/// unset everywhere, and the one pattern that would collide — all ones, a
/// negative NaN with a full payload — is neither `f64::NAN` nor the result
/// of any arithmetic on probabilities.
const UNSET: u64 = 0;

/// Probe counters of one retrieval unit: how often the memo was asked, and
/// how many of those asks computed a bound no one had computed before.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoCounts {
    /// Lookups.
    pub probes: u64,
    /// Lookups that found the cell unset and were the first to fill it.
    pub misses: u64,
}

/// Memoized node-level candidacy bounds (`v ∈ cn(n)`), shared by every
/// path of one retrieval: one dense row of cells per query node, indexed
/// by entity id, allocated zeroed the first time a path probes that query
/// node.
///
/// A cell stores the pair's α-independent bound (see
/// `node_candidate_bound`) rather than a pass/fail bit, so one memo serves
/// every threshold. There is no lock and no hashing: a probe is one relaxed
/// load, a miss one compare-exchange after the (pure) bound is computed —
/// two lanes racing on a cell compute the same bits, one of them stores
/// them and counts the miss. The structure is the same at every lane
/// count. A row is asked of the allocator zeroed and never swept here
/// (see `unset_cells`).
#[derive(Debug)]
struct NodeBoundMemo {
    n_entities: usize,
    rows: Vec<OnceLock<Box<[AtomicU64]>>>,
}

impl NodeBoundMemo {
    /// A fresh memo for a query of `n_query_nodes` nodes over a graph of
    /// `n_entities` nodes. Holds nothing per entity until a query node is
    /// probed.
    fn new(n_query_nodes: usize, n_entities: usize) -> Self {
        Self { n_entities, rows: (0..n_query_nodes).map(|_| OnceLock::new()).collect() }
    }

    fn row(&self, n: QNode) -> &[AtomicU64] {
        self.rows[n as usize].get_or_init(|| unset_cells(self.n_entities))
    }

    /// The memoized node-level bound of graph node `v` for query node `n`,
    /// which carries `label` and requires `required` around it
    /// ([`PathStats::required`]) — NaN when `v` fails a structural
    /// (α-independent) test. What the scorer does per path position, one
    /// pair at a time.
    #[cfg(test)]
    #[allow(clippy::too_many_arguments)]
    fn bound(
        &self,
        peg: &Peg,
        offline: &OfflineIndex,
        n: QNode,
        label: Label,
        required: &[(Label, u32)],
        v: EntityId,
        counts: &mut MemoCounts,
    ) -> f64 {
        probe(&self.row(n)[v.idx()], counts, || {
            node_candidate_bound(peg, offline, label, required, v)
        })
    }
}

/// `n` [`UNSET`] cells, asked of the allocator as zeroed memory rather than
/// written one by one: where the allocator answers with fresh pages (any
/// row too large for it to recycle — past 32 MiB under glibc) the kernel
/// maps only those a probe lands on, so a retrieval pays for the cells it
/// touches, not for the size of the graph; a recycled block the allocator
/// sweeps itself, which is what writing the cells cost every time.
fn unset_cells(n: usize) -> Box<[AtomicU64]> {
    const _: () = assert!(UNSET == 0, "a zeroed row must read as unset");
    if n == 0 {
        return Box::default();
    }
    let layout = Layout::array::<AtomicU64>(n).expect("a row of cells fits the address space");
    // SAFETY: `layout` has non-zero size. All-zero bytes are a valid
    // `AtomicU64` (it has the bit validity of `u64`), so the `n` cells are
    // initialized. The block comes from the global allocator with the
    // layout of `[AtomicU64; n]`, which is what dropping the box frees.
    unsafe {
        let cells = alloc_zeroed(layout).cast::<AtomicU64>();
        if cells.is_null() {
            handle_alloc_error(layout);
        }
        Box::from_raw(std::ptr::slice_from_raw_parts_mut(cells, n))
    }
}

/// Reads `cell`, or fills it with `compute()` when it is unset.
#[inline]
fn probe(cell: &AtomicU64, counts: &mut MemoCounts, compute: impl FnOnce() -> f64) -> f64 {
    counts.probes += 1;
    // Relaxed: a cell publishes nothing but its own value.
    let stored = cell.load(Ordering::Relaxed);
    if stored != UNSET {
        return f64::from_bits(!stored);
    }
    let bound = compute();
    debug_assert_ne!(!bound.to_bits(), UNSET, "a computed bound never reads as unset");
    let first =
        cell.compare_exchange(UNSET, !bound.to_bits(), Ordering::Relaxed, Ordering::Relaxed);
    counts.misses += u64::from(first.is_ok());
    bound
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
    label: Label,
    required: &[(Label, u32)],
    v: EntityId,
) -> f64 {
    let label_prob = peg.graph.label_prob(v, label);
    if label_prob <= 0.0 {
        return f64::NAN;
    }
    let ctx = &offline.context;
    let mut min_bound = f64::INFINITY;
    for &(sigma, required) in required {
        if sigma.idx() >= ctx.n_labels() {
            // Ascending: everything from here on lies outside the graph's
            // alphabet, which no graph node's context counts.
            break;
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

/// Whether a keep-bound admits a candidate at threshold `alpha` — the
/// single comparison every α-dependent pruning test reduces to. NaN
/// (structural reject) never keeps.
#[inline]
pub fn bound_keeps(bound: f64, alpha: f64) -> bool {
    bound + EPS >= alpha
}

/// Candidate set for one decomposition path, with stage counters.
#[derive(Clone, Debug)]
pub struct CandidateSet {
    /// Surviving candidate path matches, flat, in canonical order
    /// (ascending node sequence).
    pub matches: PathMatches,
    /// `|PIndex(lQ(VP), α)|` before any context pruning.
    pub raw_count: usize,
}

/// Which raw rows (node sequences) a caller of [`retrieve_candidates`]
/// answers for — a shard's home test. Rows it rejects still count as raw
/// and, when they survive pruning, as pruned, but are not returned.
pub type RowFilter<'a> = &'a (dyn Fn(&[u32]) -> bool + Sync);

/// Where one path of a [`retrieve_candidates`] call spent its time, and what
/// its memo probes found. The durations are zero unless the call was
/// `timed`.
#[derive(Clone, Copy, Debug, Default)]
pub struct RetrieveProfile {
    /// The index lookup (or, below `β`, the on-demand enumeration).
    pub lookup: Duration,
    /// Scoring every raw candidate.
    pub prune: Duration,
    /// Picking the survivors, ordering them and gathering their rows.
    pub sort: Duration,
    /// Node-bound memo counters of the prune.
    pub memo: MemoCounts,
}

/// One path's retrieval: the candidate set plus what a sharded caller
/// reports about the rows it did not return.
#[derive(Clone, Debug)]
pub struct Retrieval {
    /// Survivors (those `home` accepts, when one was given), sorted.
    pub set: CandidateSet,
    /// Raw candidates `home` accepts (`set.raw_count` without a filter).
    pub raw_home: usize,
    /// Survivors of pruning before `home` dropped any
    /// (`set.matches.len()` without a filter).
    pub pruned_total: usize,
    /// Time and memo counters.
    pub profile: RetrieveProfile,
}

impl Retrieval {
    /// Attaches this retrieval to `parent` as one pre-measured `name` span
    /// with `lookup` / `prune` / `sort` children, and returns it for the
    /// caller's own tags. Callers attach in path index order, after
    /// [`retrieve_candidates`] has returned — never from a pool thread.
    pub fn trace(&self, parent: &Span, name: &str) -> Span {
        let p = &self.profile;
        let unit = parent.child_done(name, p.lookup + p.prune + p.sort);
        unit.child_done("lookup", p.lookup).tag("raw", self.set.raw_count);
        let prune = unit.child_done("prune", p.prune);
        prune.tag("memo_probes", p.memo.probes);
        prune.tag("memo_misses", p.memo.misses);
        prune.tag("pruned", self.pruned_total);
        unit.child_done("sort", p.sort).tag("sorted", self.set.matches.len());
        unit
    }
}

/// `f()`, and how long it took when `timed` (no clock is read otherwise).
pub(crate) fn clocked<T>(timed: bool, f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = timed.then(Instant::now);
    let out = f();
    (out, t0.map(|t| t.elapsed()).unwrap_or_default())
}

/// Retrieves, prunes and orders the candidates of every path in `paths`
/// (`out[i]` is path `i`'s): the one lookup → prune → sort behind every
/// candidate source.
///
/// Three passes over the paths:
///
/// 1. **Lookup**, the paths side by side on `pool`: each fills one flat
///    [`PathMatches`].
/// 2. **Prune**, path after path, each path's raw rows scored in contiguous
///    chunks over `pool` (order-preserving, so the scores are those of a
///    sequential pass). A row's score is NaN when it is rejected at `alpha`
///    — a structural failure, or any threshold quantity falling below
///    `alpha`, where the scorer short-circuits — and otherwise its exact
///    keep-bound `min(prle·prn, node bounds…, prle·prn·pu·cpr)`. The paths share
///    one node-bound memo; taking them in order is what makes each path's
///    memo counters (and so its span tags) a function of the request
///    rather than of which path reached a shared query node first.
/// 3. **Sort**, side by side again: only the survivors (those `home`
///    accepts, when given) are put into the canonical order and gathered
///    into exactly sized buffers.
///
/// Clocks are read only when `timed`, and only measured here: the caller
/// attaches spans ([`Retrieval::trace`]) once this returns.
#[allow(clippy::too_many_arguments)]
pub fn retrieve_candidates(
    peg: &Peg,
    offline: &OfflineIndex,
    query: &QueryGraph,
    paths: &[QueryPath],
    pstats: &[PathStats],
    alpha: f64,
    pool: &ThreadPool,
    home: Option<RowFilter<'_>>,
    timed: bool,
) -> Vec<Retrieval> {
    let raws: Vec<(PathMatches, Duration)> = pool.map(paths.len(), |i| {
        clocked(timed, || offline.path_matches(peg, &paths[i].labels(query), alpha))
    });

    let memo = NodeBoundMemo::new(query.n_nodes(), peg.graph.n_nodes());
    let scored: Vec<((Vec<f64>, MemoCounts), Duration)> = (0..paths.len())
        .map(|i| {
            clocked(timed, || {
                let (path, stats, raw) = (&paths[i], &pstats[i], &raws[i].0);
                candidate_scores(peg, offline, query, path, stats, alpha, &memo, pool, raw)
            })
        })
        .collect();

    pool.map(paths.len(), |i| {
        let (raw, lookup) = &raws[i];
        let ((scores, counts), prune) = &scored[i];
        let (mut raw_home, mut pruned_total) = (0usize, 0usize);
        let (set, sort) = clocked(timed, || {
            let mut rows: Vec<u32> = Vec::new();
            for (r, score) in scores.iter().enumerate() {
                let at_home = home.is_none_or(|is_home| is_home(raw.row(r)));
                raw_home += usize::from(at_home);
                if !score.is_nan() {
                    pruned_total += 1;
                    if at_home {
                        rows.push(r as u32);
                    }
                }
            }
            raw.sort_rows(&mut rows);
            CandidateSet { matches: raw.gather(&rows), raw_count: raw.len() }
        });
        let profile = RetrieveProfile { lookup: *lookup, prune: *prune, sort, memo: *counts };
        Retrieval { set, raw_home, pruned_total, profile }
    })
}

/// The combined candidate predicate of Section 5.2.2 as a score per raw
/// candidate (see [`retrieve_candidates`]), plus the memo counters of the
/// pass.
#[allow(clippy::too_many_arguments)]
fn candidate_scores(
    peg: &Peg,
    offline: &OfflineIndex,
    query: &QueryGraph,
    path: &QueryPath,
    stats: &PathStats,
    alpha: f64,
    memo: &NodeBoundMemo,
    pool: &ThreadPool,
    raw: &PathMatches,
) -> (Vec<f64>, MemoCounts) {
    if raw.is_empty() {
        return (Vec::new(), MemoCounts::default());
    }
    // One memo row and one label per path position, resolved once.
    let rows: Vec<&[AtomicU64]> = path.nodes.iter().map(|&n| memo.row(n)).collect();
    let labels: Vec<Label> = path.labels(query);
    let (prle, prn) = (raw.prle(), raw.prn());
    let score = |i: usize, counts: &mut MemoCounts| -> f64 {
        let nodes = raw.row(i);
        // 0. The raw-retrieval threshold (relevant when `raw` is a
        // superset fetched at a lower threshold).
        let p = prle[i] * prn[i];
        let mut bound = p;
        if !bound_keeps(bound, alpha) {
            return f64::NAN;
        }
        // 1. Node-level candidacy at every position. The running minimum
        // reproduces each positional test: it drops below alpha exactly
        // when some position's bound does.
        for (pos, &v) in nodes.iter().enumerate() {
            let nb = probe(&rows[pos][v as usize], counts, || {
                node_candidate_bound(peg, offline, labels[pos], &stats.required[pos], EntityId(v))
            });
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
        let pu = path_neighborhood_bound(offline, query, nodes, stats);
        if pu == 0.0 {
            return f64::NAN;
        }
        let cpr = cycle_probability(peg, query, path, nodes, stats);
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
    let score_range = |range: std::ops::Range<usize>| {
        let mut counts = MemoCounts::default();
        let scores: Vec<f64> = range.map(|i| score(i, &mut counts)).collect();
        (scores, counts)
    };

    if pool.lanes() > 1 && raw.len() >= 64 {
        let chunks = pool.chunks(raw.len(), 4);
        let mut scores = Vec::with_capacity(raw.len());
        let mut counts = MemoCounts::default();
        for (piece, c) in pool.map(chunks.len(), |ci| score_range(chunks[ci].clone())) {
            scores.extend(piece);
            counts.probes += c.probes;
            counts.misses += c.misses;
        }
        (scores, counts)
    } else {
        score_range(0..raw.len())
    }
}

/// `pu(Pu)`: upper bound on the probability of matching the path's query
/// neighborhood (Section 5.2.2); `nodes` are the candidate's images, one
/// per path position.
pub fn path_neighborhood_bound(
    offline: &OfflineIndex,
    query: &QueryGraph,
    nodes: &[u32],
    stats: &PathStats,
) -> f64 {
    let ctx = &offline.context;
    let mut pu = 1.0;
    for (m, rv) in &stats.neighbors {
        let lm = query.label(*m);
        // pu(n, m, Pu) = fpu(ψ(n), lm) · Π_{n' ≠ n} ppu(ψ(n'), lm);
        // take the tightest over n ∈ rv(P, m).
        let ppu_all: f64 = rv.iter().map(|&pos| ctx.ppu(EntityId(nodes[pos]), lm)).product();
        let mut best = f64::INFINITY;
        for &pos in rv {
            let v = EntityId(nodes[pos]);
            let ppu_n = ctx.ppu(v, lm);
            let val = if ppu_n > 0.0 { ctx.fpu(v, lm) * ppu_all / ppu_n } else { 0.0 };
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

/// `cpr(Pu)`: exact probability of the cycle edges closed by the path;
/// `nodes` are the candidate's images, one per path position.
pub fn cycle_probability(
    peg: &Peg,
    query: &QueryGraph,
    path: &QueryPath,
    nodes: &[u32],
    stats: &PathStats,
) -> f64 {
    let mut p = 1.0;
    for &(i, j) in &stats.cycles {
        let (u, v) = (EntityId(nodes[i]), EntityId(nodes[j]));
        let (lu, lv) = (query.label(path.nodes[i]), query.label(path.nodes[j]));
        p *= peg.graph.edge_prob(u, v, lu, lv);
        if p == 0.0 {
            return 0.0;
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::reference::{self, NodeCandidateCache};
    use super::*;
    use crate::model::peg::{figure1_refgraph, PegBuilder};
    use crate::offline::{OfflineIndex, OfflineOptions};
    use crate::online::decompose::{decompose, DecompStrategy};

    fn setup() -> (Peg, OfflineIndex) {
        let peg = PegBuilder::new().build(&figure1_refgraph()).unwrap();
        let idx = OfflineIndex::build(&peg, &OfflineOptions::with_len_and_beta(2, 0.05)).unwrap();
        (peg, idx)
    }

    /// One path's retrieval on its own, unfiltered and untimed.
    fn retrieve(
        peg: &Peg,
        idx: &OfflineIndex,
        q: &QueryGraph,
        path: &QueryPath,
        alpha: f64,
        lanes: usize,
    ) -> Retrieval {
        let stats = PathStats::new(q, path);
        let pool = pegpool::pool_with(lanes);
        let (paths, pstats) = (std::slice::from_ref(path), std::slice::from_ref(&stats));
        retrieve_candidates(peg, idx, q, paths, pstats, alpha, &pool, None, false).remove(0)
    }

    #[test]
    fn path_stats_for_cycle_query() {
        let labels = vec![Label(0), Label(1), Label(2), Label(0)];
        let q = QueryGraph::cycle(&labels).unwrap();
        // Path 0-1-2-3 inside the cycle: edge (3,0) is a cycle edge.
        let p = QueryPath { nodes: vec![0, 1, 2, 3] };
        let s = PathStats::new(&q, &p);
        assert!(s.neighbors.is_empty());
        assert_eq!(s.cycles, vec![(0, 3)]);
        // Node 0 (label 0) sits between labels 1 and 0; node 1 between two 0s.
        assert_eq!(s.required[0], vec![(Label(0), 1), (Label(1), 1)]);
        assert_eq!(s.required[1], vec![(Label(0), 1), (Label(2), 1)]);
    }

    #[test]
    fn path_stats_neighbors_and_rv() {
        // Star with center 0, leaves 1..3; the path covers (1, 0).
        let q = QueryGraph::star(Label(5), &[Label(1), Label(1), Label(2)]).unwrap();
        let p = QueryPath { nodes: vec![1, 0] };
        let s = PathStats::new(&q, &p);
        // Off-path neighbors of the path: leaves 2 and 3 (adjacent to 0).
        let ms: Vec<QNode> = s.neighbors.iter().map(|(m, _)| *m).collect();
        assert!(ms.contains(&2) && ms.contains(&3));
        for (_, rv) in &s.neighbors {
            assert_eq!(rv, &vec![1]); // Position of node 0 on the path.
        }
        assert!(s.cycles.is_empty());
        // Ascending σ with counts: the centre needs two 1s and one 2 — for
        // every σ exactly `neighbor_label_count`.
        assert_eq!(s.required, vec![vec![(Label(5), 1)], vec![(Label(1), 2), (Label(2), 1)]]);
        for (pos, &n) in p.nodes.iter().enumerate() {
            for &(sigma, count) in &s.required[pos] {
                assert_eq!(q.neighbor_label_count(n, sigma) as u32, count);
            }
        }
    }

    #[test]
    fn candidates_on_figure1() {
        let (peg, idx) = setup();
        let (a, r, i) = (Label(0), Label(1), Label(2));
        let q = QueryGraph::path(&[r, a, i]).unwrap();
        let d = decompose(&q, 2, &|_| 1.0, DecompStrategy::CostBased).unwrap();
        assert_eq!(d.paths.len(), 1);
        let got = retrieve(&peg, &idx, &q, &d.paths[0], 0.2, 1);
        assert_eq!(got.set.matches.len(), 1);
        assert_eq!(got.set.matches.row(0), &[4, 1, 0]);
        assert!(got.set.raw_count >= 1);
        // Without a row filter the sharded counters restate the set's.
        assert_eq!((got.raw_home, got.pruned_total), (got.set.raw_count, 1));
    }

    #[test]
    fn pruning_a_low_threshold_superset_matches_fresh_retrieval() {
        let (peg, idx) = setup();
        let (a, r, i) = (Label(0), Label(1), Label(2));
        let q = QueryGraph::path(&[r, a, i]).unwrap();
        let d = decompose(&q, 2, &|_| 1.0, DecompStrategy::CostBased).unwrap();
        let path = &d.paths[0];
        let stats = PathStats::new(&q, path);
        let memo = NodeBoundMemo::new(q.n_nodes(), peg.graph.n_nodes());
        let pool = pegpool::pool_with(1);
        // Superset fetched at a much lower threshold, scored at 0.2, must
        // keep exactly the direct retrieval at 0.2: the keep-predicate's
        // raw threshold check subsumes the index lookup's.
        let superset = idx.path_matches(&peg, &path.labels(&q), 0.01);
        let direct = retrieve(&peg, &idx, &q, path, 0.2, 1).set;
        let (scores, _) =
            candidate_scores(&peg, &idx, &q, path, &stats, 0.2, &memo, &pool, &superset);
        let mut kept: Vec<u32> =
            (0..superset.len() as u32).filter(|&i| !scores[i as usize].is_nan()).collect();
        superset.sort_rows(&mut kept);
        assert!(superset.len() >= direct.matches.len());
        assert_eq!(superset.gather(&kept).nodes(), direct.matches.nodes());
    }

    #[test]
    fn node_pruning_rejects_low_degree_nodes() {
        let (peg, idx) = setup();
        // Query: a node labeled `a` with two `i` neighbors. In Figure 1,
        // s2 has c(s2, i) ≥ 2 (s1, s4, s34 can be i)... build a query whose
        // center needs three `i` neighbors instead — impossible.
        let q = QueryGraph::star(Label(0), &[Label(2), Label(2), Label(2)]).unwrap();
        let stats = PathStats::new(&q, &QueryPath { nodes: vec![0] });
        let memo = NodeBoundMemo::new(q.n_nodes(), peg.graph.n_nodes());
        let mut counts = MemoCounts::default();
        let mut bound =
            |v| memo.bound(&peg, &idx, 0, q.label(0), &stats.required[0], EntityId(v), &mut counts);
        // s2 = EntityId(1): c(s2, i) counts neighbors with i support that
        // are ref-disjoint: s1, s4, s34 → 3, so it survives the count test;
        // but the fpu bound at α=0.9 eliminates it (0.75^3 < 0.9).
        assert!(!bound_keeps(bound(1), 0.9));
        // At a low threshold it passes — the memoized bound is
        // alpha-independent, so the same cell answers both thresholds.
        assert!(bound_keeps(bound(1), 0.01));
        assert_eq!(counts, MemoCounts { probes: 2, misses: 1 });
    }

    #[test]
    fn memo_cells_round_trip_every_bound_a_test_can_produce() {
        // Zero (a dead `fpu`), +∞ (nothing required), the structural NaN and
        // ordinary probabilities all survive the inverted-bits cell, and
        // none of them reads back as unset.
        for b in [0.0, f64::INFINITY, f64::NAN, 0.421875, 1.0, f64::MIN_POSITIVE] {
            let cell = AtomicU64::new(UNSET);
            let mut counts = MemoCounts::default();
            let first = probe(&cell, &mut counts, || b);
            let again = probe(&cell, &mut counts, || unreachable!("the cell is set"));
            assert_eq!(first.to_bits(), b.to_bits());
            assert_eq!(again.to_bits(), b.to_bits());
            assert_eq!(counts, MemoCounts { probes: 2, misses: 1 });
        }
    }

    #[test]
    fn cycle_probability_zero_when_edge_missing() {
        let (peg, _idx) = setup();
        // Triangle query r-a-i; Figure 1 has no triangle (no s1–s3 edge
        // etc.), so any candidate path closing the cycle must score 0.
        let q = QueryGraph::cycle(&[Label(1), Label(0), Label(2)]).unwrap();
        let p = QueryPath { nodes: vec![0, 1, 2] };
        let s = PathStats::new(&q, &p);
        assert_eq!(s.cycles, vec![(0, 2)]);
        assert_eq!(cycle_probability(&peg, &q, &p, &[2, 1, 3], &s), 0.0);
    }

    #[test]
    fn structural_rejects_score_nan_even_at_zero_alpha() {
        // A candidate failing the neighbor-count test must be rejected
        // unconditionally (NaN bound), not merely fall below the
        // threshold: at alpha = 0 the boolean predicate still rejects it.
        let (peg, idx) = setup();
        let q = QueryGraph::star(Label(0), &[Label(2), Label(2), Label(2), Label(2)]).unwrap();
        let stats = PathStats::new(&q, &QueryPath { nodes: vec![0] });
        let memo = NodeBoundMemo::new(q.n_nodes(), peg.graph.n_nodes());
        // Center needs four ref-disjoint `i` neighbors; no entity has that.
        let bound = memo.bound(
            &peg,
            &idx,
            0,
            q.label(0),
            &stats.required[0],
            EntityId(1),
            &mut MemoCounts::default(),
        );
        assert!(bound.is_nan());
        assert!(!bound_keeps(bound, 0.0));
    }

    #[test]
    fn a_row_filter_drops_survivors_but_not_their_counts() {
        let (peg, idx) = setup();
        let q = QueryGraph::path(&[Label(1), Label(0)]).unwrap();
        let path = QueryPath { nodes: vec![0, 1] };
        let all = retrieve(&peg, &idx, &q, &path, 0.05, 1);
        assert!(all.set.matches.len() >= 2, "the filter needs something to split");
        let stats = [PathStats::new(&q, &path)];
        let pool = pegpool::pool_with(1);
        let first = all.set.matches.row(0).to_vec();
        let home = |row: &[u32]| row == first.as_slice();
        let paths = std::slice::from_ref(&path);
        let one =
            retrieve_candidates(&peg, &idx, &q, paths, &stats, 0.05, &pool, Some(&home), false)
                .remove(0);
        assert_eq!(one.set.matches.nodes(), first.as_slice());
        assert_eq!(one.set.matches.prle()[0].to_bits(), all.set.matches.prle()[0].to_bits());
        assert_eq!(one.set.raw_count, all.set.raw_count);
        assert_eq!((one.raw_home, one.pruned_total), (1, all.pruned_total));
    }

    fn assert_same(got: &CandidateSet, want: &reference::Retrieved, ctx: &str) {
        assert_eq!(got.raw_count, want.raw_count, "{ctx}: raw_count");
        assert_eq!(got.matches.len(), want.matches.len(), "{ctx}: survivors");
        for (i, (g, w)) in got.matches.iter().zip(&want.matches).enumerate() {
            let w_nodes: Vec<u32> = w.nodes.iter().map(|v| v.0).collect();
            assert_eq!(g.nodes, w_nodes.as_slice(), "{ctx}: nodes of #{i}");
            assert_eq!(g.prle.to_bits(), w.prle.to_bits(), "{ctx}: prle of #{i}");
            assert_eq!(g.prn.to_bits(), w.prn.to_bits(), "{ctx}: prn of #{i}");
        }
    }

    /// Random small PEGs × path / star / cycle queries × thresholds on
    /// both sides of `β` × 1 and 4 lanes: the flat retrieval equals the
    /// reference in order, nodes, `raw_count` and every probability's
    /// bits, and its memo counters do not depend on the lane count.
    #[test]
    fn flat_retrieval_equals_the_reference() {
        const BETA: f64 = 0.3;
        let (mut survivors, mut pooled, mut rejected) = (0usize, false, 0usize);
        for seed in [3u64, 11, 29] {
            let cfg = datagen::SyntheticConfig {
                seed,
                ..datagen::SyntheticConfig::paper_with_uncertainty(
                    120 + 40 * (seed as usize % 3),
                    0.5,
                )
            };
            let peg = PegBuilder::new().build(&datagen::synthetic_refgraph(&cfg)).unwrap();
            let idx =
                OfflineIndex::build(&peg, &OfflineOptions::with_len_and_beta(2, BETA)).unwrap();
            let n_labels = peg.graph.label_table().len() as u16;
            let l = |i: u64| Label(((seed + i) % n_labels as u64) as u16);
            let queries = [
                QueryGraph::path(&[l(0), l(1), l(2), l(0)]).unwrap(),
                QueryGraph::star(l(1), &[l(0), l(2), l(0)]).unwrap(),
                QueryGraph::cycle(&[l(0), l(1), l(0), l(2)]).unwrap(),
                QueryGraph::cycle(&[l(2), l(1), l(0)]).unwrap(),
            ];
            for (qi, q) in queries.iter().enumerate() {
                let d = decompose(q, 2, &|_| 1.0, DecompStrategy::CostBased).unwrap();
                for alpha in [0.1, BETA, 0.5] {
                    // One memo per retrieval, shared by its paths in path
                    // order — on both sides.
                    let cache = NodeCandidateCache::new();
                    let want: Vec<_> = d
                        .paths
                        .iter()
                        .map(|p| reference::retrieve(&peg, &idx, q, p, &cache, alpha))
                        .collect();
                    let pstats: Vec<PathStats> =
                        d.paths.iter().map(|p| PathStats::new(q, p)).collect();
                    let mut counts: Vec<Vec<MemoCounts>> = Vec::new();
                    for lanes in [1usize, 4] {
                        let pool = pegpool::pool_with(lanes);
                        let got = retrieve_candidates(
                            &peg, &idx, q, &d.paths, &pstats, alpha, &pool, None, false,
                        );
                        for (pi, (g, w)) in got.iter().zip(&want).enumerate() {
                            let ctx =
                                format!("seed {seed} query {qi} path {pi} α={alpha} lanes={lanes}");
                            assert_same(&g.set, w, &ctx);
                            survivors += g.set.matches.len();
                            rejected += g.set.raw_count - g.set.matches.len();
                            pooled |= lanes > 1 && g.set.raw_count >= 64;
                            assert!(g.profile.memo.misses <= g.profile.memo.probes, "{ctx}");
                        }
                        counts.push(got.iter().map(|g| g.profile.memo).collect());
                    }
                    assert_eq!(counts[0], counts[1], "memo counters depend on the lane count");
                }
            }
        }
        assert!(survivors > 0 && rejected > 0 && pooled, "cases must keep, reject and fan out");
    }
}
