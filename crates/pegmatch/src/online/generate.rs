//! Join ordering and final match generation (Section 5.2.5).
//!
//! # The walk
//!
//! Generation is a depth-first walk over the join order: depth `d` places
//! one vertex of partition `order[d]`, chosen from the intersection of the
//! link lists of the joined partitions placed above it, and a full
//! placement is a match. The walk visits tens of tree nodes per match it
//! emits, so a node costs no allocation and as few probes as possible:
//!
//! - **The plan.** Which partitions are placed above a depth, which of the
//!   path's query nodes they have already mapped and which this depth maps
//!   are all fixed by the order, so `GenPlan` works them out once per
//!   call: per depth the partition, its `(placed joined partition, slot)`
//!   pairs, the path positions whose query node is already mapped (an
//!   equality test against the mapping), the positions this depth maps,
//!   and the query nodes mapped once it is placed, ascending — the `Prn`
//!   input.
//! - **The scratch.** Each lane allocates its vertex choice per partition,
//!   its mapping per query node, one `Prn` input buffer and one slot per
//!   link list of every depth once, sized from the query. Nothing is
//!   undone on the way back up: a depth only reads what the depths above
//!   it wrote. Injectivity needs no entity → query-node table: the scan
//!   that tests a new image's references against every mapped entity also
//!   tests that it *is* none of them.
//! - **The lookahead.** Before a candidate pays that scan and its `Prn`,
//!   the next depth's link lists are fetched with the candidate placed and
//!   searched for their first alive common vertex. None means the subtree
//!   under the candidate is empty — most of the tree on cyclic shapes — and
//!   it is dropped there; otherwise the next depth starts from that very
//!   position, so the search is not repeated.
//! - **`Prn` once per union.** A depth that maps no new query node has its
//!   parent's union and takes its parent's `Prn`; a leaf takes the last
//!   mapping depth's.
//!
//! # What is part of the bit-exact contract
//!
//! Every link list ascends, so walking the smallest and probing the others
//! visits a depth's candidates in ascending vertex order whichever list is
//! smallest. That order decides which matches a `limit` cut keeps, so it is
//! part of the contract, as are the products: `∏ w1` multiplies in join
//! order and `Prn` runs over the mapped entities in query-node order (its
//! per-component product follows first appearance). The lookahead and the
//! reuse of a `Prn` change neither — the first only skips subtrees without
//! leaves, the second is the same operations on the same slice. The
//! recursion this replaced lives on as the `#[cfg(test)]` oracle in
//! `generate/reference.rs`.

#[cfg(test)]
mod reference;

use crate::matcher::{sort_matches, Match};
use crate::online::candidates::clocked;
use crate::online::decompose::Decomposition;
use crate::online::kpartite::KPartiteGraph;
use crate::query::{QNode, QueryGraph};
use crate::Peg;
use graphstore::EntityId;
use pegpool::ThreadPool;
use pegtrace::Span;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

const EPS: f64 = 1e-12;

/// Join order strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum JoinOrder {
    /// The paper's heuristic: most node overlap with the placed set, then
    /// most join predicates, then smallest cardinality.
    Heuristic,
    /// Sort by candidate-list size only (the random-decomposition baseline).
    BySizeOnly,
}

/// Computes the partition join order.
pub fn join_order(decomp: &Decomposition, sizes: &[usize], strategy: JoinOrder) -> Vec<usize> {
    let k = decomp.paths.len();
    if k == 0 {
        return Vec::new();
    }
    match strategy {
        JoinOrder::BySizeOnly => {
            let mut order: Vec<usize> = (0..k).collect();
            order.sort_by_key(|&i| sizes[i]);
            order
        }
        JoinOrder::Heuristic => {
            let mut order = Vec::with_capacity(k);
            let mut placed = vec![false; k];
            // First path: smallest cardinality.
            let first = (0..k).min_by_key(|&i| sizes[i]).unwrap();
            order.push(first);
            placed[first] = true;
            while order.len() < k {
                let mut placed_nodes: Vec<QNode> =
                    order.iter().flat_map(|&i| decomp.paths[i].nodes.iter().copied()).collect();
                placed_nodes.sort_unstable();
                placed_nodes.dedup();
                let next = (0..k)
                    .filter(|&i| !placed[i])
                    .max_by(|&a, &b| {
                        let ka = order_key(decomp, sizes, &placed_nodes, &placed, a);
                        let kb = order_key(decomp, sizes, &placed_nodes, &placed, b);
                        ka.partial_cmp(&kb).unwrap()
                    })
                    .unwrap();
                order.push(next);
                placed[next] = true;
            }
            order
        }
    }
}

/// (overlap, #predicates, -cardinality) — lexicographic maximization.
fn order_key(
    decomp: &Decomposition,
    sizes: &[usize],
    placed_nodes: &[QNode],
    placed: &[bool],
    i: usize,
) -> (usize, usize, i64) {
    let overlap =
        decomp.paths[i].nodes.iter().filter(|n| placed_nodes.binary_search(n).is_ok()).count();
    let preds: usize = decomp.joins[i]
        .iter()
        .filter(|&&j| placed[j])
        .map(|&j| decomp.shared_nodes(i, j).len())
        .sum();
    (overlap, preds, -(sizes[i] as i64))
}

/// Generates all full query matches from the (reduced) k-partite graph.
///
/// Matches are constructed by placing partitions in `order`, intersecting
/// link lists of already-placed joined partitions, and pruning partial
/// products `∏ w1 · Prn` against α. The exclusive coverage of `w1` weights
/// makes the final product exactly `Prle(M)`.
pub fn generate_matches(
    peg: &Peg,
    query: &QueryGraph,
    decomp: &Decomposition,
    kp: &KPartiteGraph,
    order: &[usize],
    alpha: f64,
    pool: &ThreadPool,
) -> Vec<Match> {
    generate_matches_limited(peg, query, decomp, kp, order, alpha, None, pool).0
}

/// [`generate_matches`] with an optional result cap: generation stops as
/// soon as `limit` matches have been produced, returning whether the result
/// was truncated. The matches found are sorted canonically but are *not*
/// guaranteed to be the first in that order (generation order follows the
/// join order, not the sort).
///
/// Parallel runs split the first-ordered partition's alive vertices (the
/// "seeds") across the pool's lanes; each worker keeps its own scratch,
/// reused across its seeds. Seeds are claimed from a shared atomic in index
/// order and results reassembled in that order, so the returned match set —
/// including which matches survive a `limit` cut — is byte-identical to the
/// sequential (`threads = 1`) run.
#[allow(clippy::too_many_arguments)]
pub fn generate_matches_limited(
    peg: &Peg,
    query: &QueryGraph,
    decomp: &Decomposition,
    kp: &KPartiteGraph,
    order: &[usize],
    alpha: f64,
    limit: Option<usize>,
    pool: &ThreadPool,
) -> (Vec<Match>, bool) {
    generate_matches_traced(peg, query, decomp, kp, order, alpha, limit, pool, &Span::disabled())
}

/// [`generate_matches_limited`] with its time broken down under `span`:
/// `plan` / `walk` / `sort` children, measured here and attached once the
/// lanes have joined. `walk` is tagged `seeds` / `visited` /
/// `lookahead_cut` / `leaves` when the run was not truncated — every seed
/// then ran to completion whatever the lane count, so they are a function
/// of the request.
#[allow(clippy::too_many_arguments)]
pub fn generate_matches_traced(
    peg: &Peg,
    query: &QueryGraph,
    decomp: &Decomposition,
    kp: &KPartiteGraph,
    order: &[usize],
    alpha: f64,
    limit: Option<usize>,
    pool: &ThreadPool,
    span: &Span,
) -> (Vec<Match>, bool) {
    if order.is_empty() || limit == Some(0) {
        return (Vec::new(), limit == Some(0));
    }
    let timed = span.is_recording();
    let (plan, plan_time) = clocked(timed, || GenPlan::new(query.n_nodes(), decomp, kp, order));
    let walk = Walk { peg, kp, plan: &plan, alpha, limit };
    let ((mut matches, truncated, counts), walk_time) = clocked(timed, || walk.run(pool));
    let ((), sort_time) = clocked(timed, || sort_matches(&mut matches));

    span.child_done("plan", plan_time).tag("depths", plan.depths.len());
    let walked = span.child_done("walk", walk_time);
    if !truncated {
        walked.tag("seeds", counts.seeds);
        walked.tag("visited", counts.visited);
        walked.tag("lookahead_cut", counts.lookahead_cut);
        walked.tag("leaves", counts.leaves);
    }
    span.child_done("sort", sort_time);
    (matches, truncated)
}

/// What the walk does at one depth, fixed by `(decomp, order, kp)`.
struct DepthPlan {
    /// The partition placed at this depth.
    part: usize,
    /// `(joined partition placed above, its slot towards `part`)`, in
    /// ascending partition order: whose link lists bound this depth's
    /// candidates.
    placed: Vec<(usize, usize)>,
    /// Where this depth's candidate lists start in [`Lane::lists`]: its
    /// link lists, or the one list that stands in when it has none
    /// (`unlinked`; at depth 0, one seed of it at a time).
    lists_at: usize,
    /// `(path position, query node)` already mapped above: the vertex's
    /// image there must equal the mapping.
    bound: Vec<(usize, QNode)>,
    /// `(path position, query node)` this depth maps, in path order.
    fresh: Vec<(usize, QNode)>,
    /// Query nodes mapped once this depth is placed, ascending: the order
    /// `Prn` takes their images in.
    mapped: Vec<QNode>,
    /// The partition's alive vertices, when the depth joins nothing placed
    /// above it — at the first depth they are the seeds, below it the
    /// depth of an order that is not connected; empty otherwise.
    unlinked: Vec<u32>,
}

impl DepthPlan {
    /// Candidate lists this depth intersects (at least the stand-in one).
    fn n_lists(&self) -> usize {
        self.placed.len().max(1)
    }
}

/// The per-depth plan of one generation call.
struct GenPlan {
    depths: Vec<DepthPlan>,
    n_qnodes: usize,
    /// Link-list slots a lane needs: every depth's lists side by side.
    n_lists: usize,
}

impl GenPlan {
    fn new(n_qnodes: usize, decomp: &Decomposition, kp: &KPartiteGraph, order: &[usize]) -> Self {
        let mut depth_of = vec![usize::MAX; kp.n_partitions()];
        let mut mapped: Vec<QNode> = Vec::with_capacity(n_qnodes);
        let mut depths: Vec<DepthPlan> = Vec::with_capacity(order.len());
        let mut n_lists = 0;
        for (d, &pi) in order.iter().enumerate() {
            let part = kp.part(pi);
            let placed: Vec<(usize, usize)> = part
                .joined()
                .iter()
                .filter(|&&j| depth_of[j] < d)
                .map(|&j| (j, kp.part(j).slot_of(pi).expect("symmetric join")))
                .collect();
            let unlinked = if placed.is_empty() {
                (0..part.n_verts() as u32).filter(|&v| part.vert(v as usize).alive()).collect()
            } else {
                Vec::new()
            };
            let path = &decomp.paths[pi].nodes;
            debug_assert!(
                path.iter().enumerate().all(|(i, n)| !path[..i].contains(n)),
                "a decomposition path is a simple path"
            );
            let (bound, fresh): (Vec<_>, Vec<_>) = path
                .iter()
                .copied()
                .enumerate()
                .partition(|(_, n)| mapped.binary_search(n).is_ok());
            mapped.extend(fresh.iter().map(|&(_, n)| n));
            mapped.sort_unstable();
            let depth = DepthPlan {
                part: pi,
                placed,
                lists_at: n_lists,
                bound,
                fresh,
                mapped: mapped.clone(),
                unlinked,
            };
            n_lists += depth.n_lists();
            depths.push(depth);
            depth_of[pi] = d;
        }
        assert_eq!(mapped.len(), n_qnodes, "the decomposition covers every query node");
        GenPlan { depths, n_qnodes, n_lists }
    }
}

/// What a walk did, in tree nodes. Plain per-lane counters, summed once the
/// lanes have joined.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct WalkCounts {
    /// Vertices of the first partition the walk started from.
    seeds: usize,
    /// Partial matches placed: candidates, at any depth, that passed every
    /// test (a leaf is one).
    visited: usize,
    /// Candidates dropped because the next partition had no alive vertex
    /// linked from all of its placed neighbours.
    lookahead_cut: usize,
    /// Full matches reached.
    leaves: usize,
}

impl WalkCounts {
    fn add(&mut self, other: WalkCounts) {
        self.seeds += other.seeds;
        self.visited += other.visited;
        self.lookahead_cut += other.lookahead_cut;
        self.leaves += other.leaves;
    }
}

/// Per-lane scratch, allocated once and reused across every seed the lane
/// walks. `'a` is the call: link lists borrow from the k-partite graph,
/// the stand-in lists from the plan and the seed list.
struct Lane<'a> {
    /// Vertex placed per partition; valid for the depths above the current.
    chosen: Vec<u32>,
    /// Entity per query node; valid for the nodes the depths above mapped.
    mapping: Vec<EntityId>,
    /// `Prn` input buffer.
    union: Vec<EntityId>,
    /// Candidate lists of every depth: depth `d`'s are the `n_lists()`
    /// entries from `lists_at`, smallest first.
    lists: Vec<&'a [u32]>,
    out: Vec<Match>,
    counts: WalkCounts,
}

/// Read-only inputs of the walk, shared by every lane.
struct Walk<'a> {
    peg: &'a Peg,
    kp: &'a KPartiteGraph,
    plan: &'a GenPlan,
    alpha: f64,
    limit: Option<usize>,
}

impl<'a> Walk<'a> {
    /// Walks every seed on `pool`; matches come back in generation order
    /// (seed order, then the walk's), cut at the cap.
    fn run(&self, pool: &ThreadPool) -> (Vec<Match>, bool, WalkCounts) {
        let seeds: &'a [u32] = &self.plan.depths[0].unlinked;
        let lanes = pool.lanes().min(seeds.len().max(1));
        if lanes <= 1 || seeds.len() < 2 {
            self.run_sequential(seeds)
        } else {
            self.run_parallel(seeds, pool, lanes)
        }
    }

    /// The `threads = 1` reference path: one walk over all seeds with the
    /// cap applied globally.
    fn run_sequential(&self, seeds: &'a [u32]) -> (Vec<Match>, bool, WalkCounts) {
        let mut st = self.lane();
        let completed = seeds.iter().all(|seed| self.walk_seed(seed, &mut st));
        (st.out, !completed, st.counts)
    }

    fn run_parallel(
        &self,
        seeds: &'a [u32],
        pool: &ThreadPool,
        lanes: usize,
    ) -> (Vec<Match>, bool, WalkCounts) {
        // Claim contiguous seed *chunks* rather than single seeds: one atomic
        // claim, one result slot, and one tracker update per ~n/(8·lanes)
        // seeds keeps coordination cost negligible even with tens of
        // thousands of seeds.
        let chunks = pool.chunks(seeds.len(), 8);
        let n = chunks.len();
        let results: Vec<Mutex<Option<Vec<Match>>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let claim = AtomicUsize::new(0);
        let enough = AtomicBool::new(false);
        let tracker = Mutex::new(PrefixTracker { counts: vec![None; n], frontier: 0, cum: 0 });
        let total = Mutex::new(WalkCounts::default());

        pool.for_each(lanes, &|_lane| {
            let mut st = self.lane();
            loop {
                if self.limit.is_some() && enough.load(Ordering::Relaxed) {
                    break;
                }
                let c = claim.fetch_add(1, Ordering::Relaxed);
                if c >= n {
                    break;
                }
                // A chunk contributes at most `limit` matches to the final
                // prefix cut, so its own walk is capped there too; the
                // scratch accumulates across the chunk's seeds exactly like
                // the sequential run does globally.
                for seed in &seeds[chunks[c].clone()] {
                    if !self.walk_seed(seed, &mut st) {
                        break;
                    }
                }
                let found = std::mem::take(&mut st.out);
                let count = found.len();
                *results[c].lock().unwrap() = Some(found);
                if let Some(k) = self.limit {
                    let mut t = tracker.lock().unwrap();
                    t.counts[c] = Some(count);
                    while t.frontier < n {
                        let Some(fc) = t.counts[t.frontier] else { break };
                        t.cum += fc;
                        t.frontier += 1;
                        if t.cum >= k {
                            enough.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                    if t.cum >= k {
                        break;
                    }
                }
            }
            total.lock().unwrap().add(st.counts);
        });

        // Reassemble in chunk (= seed) order; cut at the cap exactly where
        // the sequential run would have stopped.
        let mut out = Vec::new();
        let mut truncated = false;
        for slot in &results {
            let Some(found) = slot.lock().unwrap().take() else { break };
            for m in found {
                out.push(m);
                if self.limit.is_some_and(|k| out.len() >= k) {
                    truncated = true;
                    break;
                }
            }
            if truncated {
                break;
            }
        }
        (out, truncated, total.into_inner().unwrap())
    }

    fn lane(&self) -> Lane<'a> {
        let plan = self.plan;
        let mut lists: Vec<&'a [u32]> = vec![&[]; plan.n_lists];
        for depth in &plan.depths {
            lists[depth.lists_at] = &depth.unlinked;
        }
        Lane {
            chosen: vec![0; self.kp.n_partitions()],
            // Never read before a depth writes it; a slip indexes out of
            // bounds instead of matching entity 0.
            mapping: vec![EntityId(u32::MAX); plan.n_qnodes],
            union: vec![EntityId(u32::MAX); plan.n_qnodes],
            lists,
            out: Vec::new(),
            counts: WalkCounts::default(),
        }
    }

    /// Walks the subtree under `seed`, depth 0's one-element candidate list.
    /// Returns `false` when the cap stopped generation.
    fn walk_seed(&self, seed: &'a u32, st: &mut Lane<'a>) -> bool {
        st.counts.seeds += 1;
        st.lists[0] = std::slice::from_ref(seed);
        self.descend(0, 0, 1.0, 1.0, st)
    }

    /// Fetches depth `d`'s link lists off the vertices placed above it,
    /// smallest first.
    fn link(&self, d: usize, st: &mut Lane<'a>) {
        let depth = &self.plan.depths[d];
        let lists = &mut st.lists[depth.lists_at..depth.lists_at + depth.placed.len()];
        for (list, &(j, slot)) in lists.iter_mut().zip(&depth.placed) {
            *list = self.kp.part(j).vert(st.chosen[j] as usize).links(slot);
        }
        if let Some(smallest) = (0..lists.len()).min_by_key(|&i| lists[i].len()) {
            lists.swap(0, smallest);
        }
    }

    /// The first position at or after `from` of depth `d`'s smallest list
    /// whose vertex is alive and on every other list of the depth.
    fn next_candidate(&self, d: usize, from: usize, st: &Lane<'a>) -> Option<usize> {
        let depth = &self.plan.depths[d];
        let part = self.kp.part(depth.part);
        let lists = &st.lists[depth.lists_at..depth.lists_at + depth.n_lists()];
        let (smallest, rest) = lists.split_first().expect("a depth has a candidate list");
        smallest[from..]
            .iter()
            .position(|&v| {
                part.vert(v as usize).alive() && rest.iter().all(|l| l.binary_search(&v).is_ok())
            })
            .map(|p| from + p)
    }

    /// Tries depth `d`'s candidates from position `first` of its smallest
    /// list — a known candidate — on top of the partial match above, whose
    /// `∏ w1` and `Prn` are `w1` and `prn`. Returns `false` when the cap
    /// stopped generation.
    fn descend(&self, d: usize, first: usize, w1: f64, prn: f64, st: &mut Lane<'a>) -> bool {
        let smallest: &'a [u32] = st.lists[self.plan.depths[d].lists_at];
        let mut at = Some(first);
        while let Some(pos) = at {
            if !self.place(d, smallest[pos], w1, prn, st) {
                return false;
            }
            at = self.next_candidate(d, pos + 1, st);
        }
        true
    }

    /// Tests vertex `vid` at depth `d` and, if it stands, walks the subtree
    /// under it. Returns `false` when the cap stopped generation.
    fn place(&self, d: usize, vid: u32, w1: f64, prn: f64, st: &mut Lane<'a>) -> bool {
        let depths = &self.plan.depths;
        let depth = &depths[d];
        let vert = self.kp.part(depth.part).vert(vid as usize);
        let images = vert.nodes();
        if depth.bound.iter().any(|&(pos, n)| st.mapping[n as usize] != images[pos]) {
            return true;
        }

        // Lookahead: with `vid` placed, the next partition must still have
        // a candidate. Where it does, that is where the next depth starts.
        st.chosen[depth.part] = vid;
        let is_leaf = d + 1 == depths.len();
        let mut below = 0;
        if !is_leaf {
            self.link(d + 1, st);
            match self.next_candidate(d + 1, 0, st) {
                Some(pos) => below = pos,
                None => {
                    st.counts.lookahead_cut += 1;
                    return true;
                }
            }
        }

        // A new image must be no entity already mapped (injectivity) and
        // share no reference with any.
        let above: &[QNode] = if d == 0 { &[] } else { &depths[d - 1].mapped };
        for (i, &(pos, n)) in depth.fresh.iter().enumerate() {
            let e = images[pos];
            let clashes = |m: EntityId| m == e || !self.peg.graph.refs_disjoint(m, e);
            if above.iter().any(|&q| clashes(st.mapping[q as usize]))
                || depth.fresh[..i].iter().any(|&(p, _)| clashes(images[p]))
            {
                return true;
            }
            st.mapping[n as usize] = e;
        }

        let w1 = w1 * vert.w1();
        let prn = if depth.fresh.is_empty() {
            prn
        } else {
            let union = &mut st.union[..depth.mapped.len()];
            for (u, &q) in union.iter_mut().zip(&depth.mapped) {
                *u = st.mapping[q as usize];
            }
            self.peg.prn(union)
        };
        if !(w1 * prn + EPS >= self.alpha && prn > 0.0) {
            return true;
        }
        st.counts.visited += 1;
        if !is_leaf {
            return self.descend(d + 1, below, w1, prn, st);
        }
        st.counts.leaves += 1;
        st.out.push(Match { nodes: st.mapping.clone(), prle: w1, prn });
        self.limit.is_none_or(|k| st.out.len() < k)
    }
}

/// Tracks how many matches the completed *contiguous prefix* of seed
/// chunks has produced; once that reaches the cap, no further chunk needs
/// to run.
struct PrefixTracker {
    counts: Vec<Option<usize>>,
    frontier: usize,
    cum: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::peg::PegBuilder;
    use crate::offline::{OfflineIndex, OfflineOptions};
    use crate::online::candidates::{retrieve_candidates, PathStats};
    use crate::online::decompose::{decompose, DecompStrategy, QueryPath};
    use crate::online::kpartite::{build_kpartite, ReduceOptions};
    use graphstore::Label;

    /// One joined-and-reduced k-partite graph to generate from, and the
    /// join orders to walk it in.
    struct Case<'a> {
        ctx: String,
        peg: &'a Peg,
        query: &'a QueryGraph,
        decomp: &'a Decomposition,
        kp: &'a KPartiteGraph,
        alpha: f64,
        orders: &'a [Vec<usize>],
    }

    /// 3 synthetic PEGs × path / star / 4-cycle / 5-cycle × paths of at
    /// most 1 and 2 edges × α on both sides of `β`. The orders are the
    /// rotations of the heuristic one: on a chain of three partitions one
    /// of them puts the two ends first, so the second depth joins nothing
    /// placed above it.
    fn for_each_case(mut f: impl FnMut(&Case<'_>)) {
        let pool = pegpool::pool_with(1);
        for seed in [3u64, 11, 29] {
            // One identity group per 30 references: enough merged
            // entities that matches carry a `Prn` below one and candidates
            // die on shared references.
            let n_refs = 120 + 40 * (seed as usize % 3);
            let cfg = datagen::SyntheticConfig {
                seed,
                k_groups: n_refs / 30,
                ..datagen::SyntheticConfig::paper_with_uncertainty(n_refs, 0.5)
            };
            let peg = PegBuilder::new().build(&datagen::synthetic_refgraph(&cfg)).unwrap();
            let idx =
                OfflineIndex::build(&peg, &OfflineOptions::with_len_and_beta(2, 0.3)).unwrap();
            let n_labels = peg.graph.label_table().len() as u64;
            let l = |i: u64| Label(((seed + i) % n_labels) as u16);
            let queries = [
                QueryGraph::path(&[l(0), l(1), l(2), l(0)]).unwrap(),
                QueryGraph::star(l(1), &[l(0), l(2), l(0)]).unwrap(),
                QueryGraph::cycle(&[l(0), l(1), l(0), l(2)]).unwrap(),
                QueryGraph::cycle(&[l(0), l(1), l(2), l(0), l(1)]).unwrap(),
            ];
            for (qi, query) in queries.iter().enumerate() {
                for max_len in [1usize, 2] {
                    let decomp =
                        decompose(query, max_len, &|_| 1.0, DecompStrategy::CostBased).unwrap();
                    let pstats: Vec<PathStats> =
                        decomp.paths.iter().map(|p| PathStats::new(query, p)).collect();
                    for alpha in [0.1, 0.3, 0.5] {
                        let sets: Vec<_> = retrieve_candidates(
                            &peg,
                            &idx,
                            query,
                            &decomp.paths,
                            &pstats,
                            alpha,
                            &pool,
                            None,
                            false,
                        )
                        .into_iter()
                        .map(|r| r.set)
                        .collect();
                        let mut kp = build_kpartite(&peg, query, &decomp, &sets, alpha, &pool);
                        kp.reduce(alpha, &ReduceOptions::default());
                        let sizes: Vec<usize> = sets.iter().map(|cs| cs.matches.len()).collect();
                        let heuristic = join_order(&decomp, &sizes, JoinOrder::Heuristic);
                        let orders: Vec<Vec<usize>> = (0..heuristic.len())
                            .map(|r| {
                                let mut order = heuristic.clone();
                                order.rotate_left(r);
                                order
                            })
                            .collect();
                        f(&Case {
                            ctx: format!("seed {seed} query {qi} max_len {max_len} α={alpha}"),
                            peg: &peg,
                            query,
                            decomp: &decomp,
                            kp: &kp,
                            alpha,
                            orders: &orders,
                        });
                    }
                }
            }
        }
    }

    /// Every case × every order × `limit` ∈ {none, 1, 7, exactly the match
    /// count, one more} × 1 and 4 lanes: nodes, the bits of `prle` / `prn`
    /// and `truncated` equal the old recursion's — so a `limit` keeps the
    /// same matches at both lane counts.
    #[test]
    fn planned_walk_equals_the_reference() {
        let (mut found, mut cut_short, mut fanned_out, mut unlinked) =
            (0usize, 0usize, false, false);
        for_each_case(|c| {
            for order in c.orders {
                let all = reference::generate(c.peg, c.query, c.decomp, c.kp, order, c.alpha, None);
                let count = all.matches.len();
                found += count;
                let plan = GenPlan::new(c.query.n_nodes(), c.decomp, c.kp, order);
                unlinked |= count > 0 && plan.depths[1..].iter().any(|d| !d.unlinked.is_empty());
                for limit in [None, Some(1), Some(7), Some(count), Some(count + 1)] {
                    let want =
                        reference::generate(c.peg, c.query, c.decomp, c.kp, order, c.alpha, limit);
                    cut_short += usize::from(want.truncated);
                    for lanes in [1usize, 4] {
                        let pool = pegpool::pool_with(lanes);
                        let (got, truncated) = generate_matches_limited(
                            c.peg, c.query, c.decomp, c.kp, order, c.alpha, limit, &pool,
                        );
                        let ctx =
                            format!("{} order {order:?} limit {limit:?} lanes {lanes}", c.ctx);
                        assert_eq!(truncated, want.truncated, "{ctx}: truncated");
                        assert_eq!(got.len(), want.matches.len(), "{ctx}: matches");
                        for (i, (g, w)) in got.iter().zip(&want.matches).enumerate() {
                            assert_eq!(g.nodes, w.nodes, "{ctx}: nodes of #{i}");
                            assert_eq!(g.prle.to_bits(), w.prle.to_bits(), "{ctx}: prle of #{i}");
                            assert_eq!(g.prn.to_bits(), w.prn.to_bits(), "{ctx}: prn of #{i}");
                        }
                        fanned_out |= lanes > 1 && count >= 64;
                    }
                }
            }
        });
        assert!(
            found > 0 && cut_short > 0 && fanned_out && unlinked,
            "cases must find, cut, fan out and walk a disconnected order"
        );
    }

    /// The lookahead is a pure filter: it places no more partial matches
    /// than the recursion without it made calls (one per seed, one per
    /// partial match placed), it reaches exactly the same leaves, and what
    /// it counts does not depend on the lane count.
    #[test]
    fn lookahead_never_cuts_a_leaf() {
        let (mut cut, mut saved) = (0usize, 0usize);
        for_each_case(|c| {
            for order in c.orders {
                let want =
                    reference::generate(c.peg, c.query, c.decomp, c.kp, order, c.alpha, None);
                let plan = GenPlan::new(c.query.n_nodes(), c.decomp, c.kp, order);
                let walk = Walk { peg: c.peg, kp: c.kp, plan: &plan, alpha: c.alpha, limit: None };
                let (found, truncated, counts) = walk.run(&pegpool::pool_with(1));
                let ctx = format!("{} order {order:?}", c.ctx);
                assert!(!truncated, "{ctx}");
                assert_eq!(counts.seeds, plan.depths[0].unlinked.len(), "{ctx}: seeds");
                assert_eq!(counts.leaves, want.matches.len(), "{ctx}: leaves");
                assert_eq!(found.len(), want.matches.len(), "{ctx}: matches");
                assert!(counts.seeds + counts.visited <= want.calls, "{ctx}: visited");
                cut += counts.lookahead_cut;
                saved += want.calls - counts.seeds - counts.visited;
                let (_, _, fanned) = walk.run(&pegpool::pool_with(4));
                assert_eq!(fanned, counts, "{ctx}: counters depend on the lane count");
            }
        });
        assert!(cut > 0 && saved > 0, "the lookahead must have cut something");
    }

    fn diamond_decomp() -> Decomposition {
        // Query: square 0-1-2-3-0; decomposed into two 2-edge paths.
        let q = QueryGraph::cycle(&[Label(0), Label(1), Label(0), Label(1)]).unwrap();
        decompose(&q, 2, &|_| 1.0, DecompStrategy::CostBased).unwrap()
    }

    #[test]
    fn heuristic_order_prefers_overlap_then_size() {
        let d = diamond_decomp();
        let k = d.paths.len();
        let sizes: Vec<usize> = (0..k).map(|i| 10 * (i + 1)).collect();
        let order = join_order(&d, &sizes, JoinOrder::Heuristic);
        assert_eq!(order.len(), k);
        assert_eq!(order[0], 0, "smallest cardinality first");
        // All partitions placed exactly once.
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..k).collect::<Vec<_>>());
    }

    #[test]
    fn size_only_order_sorts_ascending() {
        let d = diamond_decomp();
        let k = d.paths.len();
        let sizes: Vec<usize> = (0..k).map(|i| 100 - i).collect();
        let order = join_order(&d, &sizes, JoinOrder::BySizeOnly);
        for w in order.windows(2) {
            assert!(sizes[w[0]] <= sizes[w[1]]);
        }
    }

    #[test]
    fn order_key_counts_predicates() {
        // Path 0 shares two nodes with path 1 and one with path 2.
        let d = Decomposition::from_paths(vec![
            QueryPath { nodes: vec![0, 1, 2] },
            QueryPath { nodes: vec![0, 3, 2] },
            QueryPath { nodes: vec![1, 4] },
        ]);
        let sizes = [5, 5, 5];
        let placed = [true, false, false];
        let key1 = order_key(&d, &sizes, &[0, 1, 2], &placed, 1);
        let key2 = order_key(&d, &sizes, &[0, 1, 2], &placed, 2);
        assert!(key1 > key2, "path 1 overlaps twice, path 2 once");
    }
}
