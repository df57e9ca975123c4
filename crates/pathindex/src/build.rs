//! Index construction and maintenance: bounded-length path enumeration.
//!
//! Construction runs a depth-first enumeration of directed paths from every
//! start node, pruning by the anti-monotone bound `Prle · Prn ≥ β` (any
//! prefix of an indexable path is itself indexable — the property the paper
//! exploits to build length `l+1` from length `l`). Start nodes are
//! partitioned across the persistent [`pegpool`] worker pool (with a merge
//! barrier, mirroring the paper's per-length synchronization barrier);
//! each worker emits only canonically-oriented paths so every undirected
//! path/labeling pair is stored exactly once.
//!
//! An update uses the same property the other way round: every sub-path
//! of an indexable path is indexable, so the entries through a node can be
//! grown outward from it ([`update_index`]).

use crate::index::{
    cmp_with_reversed, Edits, Fill, IdentityOracle, PathIndex, PathIndexConfig, PathMatches,
};
use graphstore::{EntityGraph, EntityId, Label};
use std::time::{Duration, Instant};

/// Probability slack for threshold comparisons.
const EPS: f64 = 1e-12;

/// Slack of the sub-path prune in [`update_index`]'s walk. A sub-path's
/// probability is at least its path's, but the two products are rounded
/// in different orders; this is far above that rounding and far below any
/// probability gap that matters, and the exact test runs on emission.
const PRUNE_SLACK: f64 = 1e-9;

/// Builds the context-aware path index for `graph`.
pub fn build_index(
    graph: &EntityGraph,
    oracle: &dyn IdentityOracle,
    config: &PathIndexConfig,
) -> PathIndex {
    PathIndex::from_fill(enumerate(config, graph, oracle))
}

/// Where one [`update_index`] call spent its time.
#[derive(Clone, Copy, Debug, Default)]
pub struct IndexUpdateTimes {
    /// Step 1: enumerating the entries through a dirty node on the
    /// previous graph — the entries to take out.
    pub drop: Duration,
    /// Steps 2–3: the same enumeration on the new graph — the entries to
    /// put in — and the keyed patch of the chunks the changes fall into.
    pub enumerate: Duration,
    /// Step 4: the sweep for emptied sequences (the histogram counts
    /// themselves move in step 3, one per entry that left or entered).
    pub histogram: Duration,
}

/// Patches `index` after a graph mutation, given the graph and identity
/// oracle it was built from (`prev`, `prev_oracle`), the mutated ones and
/// the set of `dirty` nodes (any node whose labels, incident edges, or
/// existence component may differ between the two graphs; new nodes must
/// be marked dirty, and ids past `dirty`'s end count as dirty). Node ids
/// must be stable across the mutation — the entity-graph compiler
/// guarantees this by tombstoning deletions.
///
/// An entry through no dirty node is the same in both graphs, so the
/// update reads and writes only the entries through one:
///
/// 1. grown outward from each dirty node of `prev` — the right arm first,
///    then the left, pruned by the sub-path's probability, and emitted
///    once, from the path's smallest dirty node, exactly when the build
///    walk from its first node would emit it (same orientation, same
///    prefix tests, same multiplication order) — they are exactly the
///    entries of `index` to take out;
/// 2. the same walk on `graph` yields exactly the entries to put in;
/// 3. both sides are sorted by key, and an entry on both with the same
///    bits stays where it is; the rest are swapped by key into the sorted
///    buckets, rebuilding only the chunks a change falls into, while
///    histogram counts move by one per entry that left or entered;
/// 4. sequences left without entries are removed entirely.
///
/// `index` is typically a clone of the previous generation, which costs a
/// reference per bucket; no shared chunk is written, so the previous
/// generation answers every lookup exactly as before. The result equals
/// [`build_index`] on the mutated graph entry for entry, in order, and in
/// its histograms.
pub fn update_index(
    index: &mut PathIndex,
    prev: &EntityGraph,
    prev_oracle: &dyn IdentityOracle,
    graph: &EntityGraph,
    oracle: &dyn IdentityOracle,
    dirty: &[bool],
) -> IndexUpdateTimes {
    let mut times = IndexUpdateTimes::default();
    let mut edits = Edits::default();

    // 1. The entries through a dirty node of the previous graph.
    let t = Instant::now();
    let mut take_out = |seq: &[u16], nodes: &[EntityId], prle: f64, prn: f64| {
        edits.push(false, seq, nodes.iter().map(|v| v.0), prle, prn);
    };
    enumerate_dirty(index.config(), prev, prev_oracle, dirty, &mut take_out);
    times.drop = t.elapsed();

    // 2–3. The entries through a dirty node of the new graph, swapped in.
    let t = Instant::now();
    let mut put_in = |seq: &[u16], nodes: &[EntityId], prle: f64, prn: f64| {
        edits.push(true, seq, nodes.iter().map(|v| v.0), prle, prn);
    };
    enumerate_dirty(index.config(), graph, oracle, dirty, &mut put_in);
    let lost = index.patch(edits);
    times.enumerate = t.elapsed();

    // 4. Drop emptied sequences.
    let t = Instant::now();
    index.remove_emptied(&lost);
    times.histogram = t.elapsed();
    times
}

/// Paths emitted by one worker, flat: entry `i` spans
/// `ends[i - 1]..ends[i]` of `labels` and `nodes`, and the entries of the
/// worker's `k`-th start node end at `start_ends[k]`.
#[derive(Default)]
struct Emitted {
    labels: Vec<u16>,
    nodes: Vec<u32>,
    ends: Vec<usize>,
    prle: Vec<f64>,
    prn: Vec<f64>,
    start_ends: Vec<usize>,
}

/// Runs the build walk from every node and collects what it emits: on one
/// thread straight into the fill, on several through per-worker buffers
/// merged back in start order, so the fill sees the same entries in the
/// same order at every thread count.
fn enumerate(config: &PathIndexConfig, graph: &EntityGraph, oracle: &dyn IdentityOracle) -> Fill {
    let mut fill = Fill::new(config.clone());
    let n = graph.n_nodes();
    let threads = if config.threads == 0 { pegpool::machine_lanes() } else { config.threads };
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        let mut sink = |seq: &[u16], nodes: &[EntityId], prle: f64, prn: f64| {
            fill.insert(seq, nodes.iter().map(|v| v.0), prle, prn);
        };
        for v in graph.node_ids() {
            enumerate_from(graph, oracle, config, v, &mut sink);
        }
        return fill;
    }
    // Strided partitioning over start nodes on the shared persistent pool.
    let partials: Vec<Emitted> = pegpool::pool_with(threads).map(threads, |t| {
        let mut out = Emitted::default();
        for v in graph.node_ids().skip(t).step_by(threads) {
            let mut sink = |seq: &[u16], nodes: &[EntityId], prle: f64, prn: f64| {
                out.labels.extend_from_slice(seq);
                out.nodes.extend(nodes.iter().map(|v| v.0));
                out.ends.push(out.nodes.len());
                out.prle.push(prle);
                out.prn.push(prn);
            };
            enumerate_from(graph, oracle, config, v, &mut sink);
            out.start_ends.push(out.ends.len());
        }
        out
    });
    // Start `v` was worker `v % threads`'s `v / threads`-th.
    let mut cursors = vec![(0usize, 0usize); threads];
    for v in 0..n {
        let (part, (entry, from)) = (&partials[v % threads], &mut cursors[v % threads]);
        while *entry < part.start_ends[v / threads] {
            let to = part.ends[*entry];
            let nodes = part.nodes[*from..to].iter().copied();
            fill.insert(&part.labels[*from..to], nodes, part.prle[*entry], part.prn[*entry]);
            (*entry, *from) = (*entry + 1, to);
        }
    }
    fill
}

/// Receives one canonical path: label sequence, nodes, `Prle`, `Prn`.
type Sink<'a> = dyn FnMut(&[u16], &[EntityId], f64, f64) + 'a;

/// DFS state for one start node of the build walk.
struct Walk<'a> {
    graph: &'a EntityGraph,
    oracle: &'a dyn IdentityOracle,
    config: &'a PathIndexConfig,
    nodes: Vec<EntityId>,
    labels: Vec<u16>,
    all_trivial: bool,
}

fn enumerate_from(
    graph: &EntityGraph,
    oracle: &dyn IdentityOracle,
    config: &PathIndexConfig,
    start: EntityId,
    sink: &mut Sink<'_>,
) {
    let mut walk = Walk {
        graph,
        oracle,
        config,
        nodes: Vec::with_capacity(config.max_len + 1),
        labels: Vec::with_capacity(config.max_len + 1),
        all_trivial: true,
    };
    let start_trivial = oracle.always_exists(start);
    for l in graph.node(start).labels.support() {
        let lp = graph.label_prob(start, l);
        let prn = if start_trivial { 1.0 } else { oracle.prn(&[start]) };
        if lp * prn + EPS < config.beta {
            continue;
        }
        walk.nodes.push(start);
        walk.labels.push(l.0);
        walk.all_trivial = start_trivial;
        emit_if_canonical(&walk.labels, &walk.nodes, lp, prn, sink);
        extend(&mut walk, lp, sink);
        walk.nodes.pop();
        walk.labels.pop();
    }
}

fn extend(walk: &mut Walk<'_>, prle: f64, sink: &mut Sink<'_>) {
    if walk.nodes.len() > walk.config.max_len {
        return;
    }
    let graph = walk.graph;
    let last = *walk.nodes.last().unwrap();
    let last_label = Label(*walk.labels.last().unwrap());
    for (nb, edge) in graph.neighbor_edges(last) {
        if walk.nodes.contains(&nb) || graph.shares_ref_with_any(nb, &walk.nodes) {
            continue;
        }
        let nb_trivial = walk.oracle.always_exists(nb);
        for l in graph.node(nb).labels.support() {
            let lp = graph.label_prob(nb, l);
            let ep = if edge.a == last {
                edge.prob.prob(last_label, l)
            } else {
                edge.prob.prob(l, last_label)
            };
            if lp <= 0.0 || ep <= 0.0 {
                continue;
            }
            let new_prle = prle * lp * ep;
            walk.nodes.push(nb);
            walk.labels.push(l.0);
            let was_trivial = walk.all_trivial;
            walk.all_trivial = walk.all_trivial && nb_trivial;
            let prn = if walk.all_trivial { 1.0 } else { walk.oracle.prn(&walk.nodes) };
            if new_prle * prn + EPS >= walk.config.beta {
                emit_if_canonical(&walk.labels, &walk.nodes, new_prle, prn, sink);
                extend(walk, new_prle, sink);
            }
            walk.nodes.pop();
            walk.labels.pop();
            walk.all_trivial = was_trivial;
        }
    }
}

/// Whether the build stores the directed path `nodes` labelled `labels`
/// as it stands: its label sequence is the smaller orientation, or a
/// palindrome read from its smaller end.
fn is_canonical(labels: &[u16], nodes: &[EntityId]) -> bool {
    match cmp_with_reversed(labels) {
        std::cmp::Ordering::Less => true,
        std::cmp::Ordering::Greater => false,
        std::cmp::Ordering::Equal => nodes.len() == 1 || nodes[0] < nodes[nodes.len() - 1],
    }
}

fn emit_if_canonical(labels: &[u16], nodes: &[EntityId], prle: f64, prn: f64, sink: &mut Sink<'_>) {
    if is_canonical(labels, nodes) {
        sink(labels, nodes, prle, prn);
    }
}

/// Each step from `v`, labelled `lv`: a neighbour, a label it may take,
/// that label's probability and the edge's probability under both labels
/// — read off `v`'s CSR row, with the CPT oriented as the build reads it.
/// The entry is the same whichever endpoint the edge is read from.
fn steps(
    graph: &EntityGraph,
    v: EntityId,
    lv: Label,
) -> impl Iterator<Item = (EntityId, Label, f64, f64)> + '_ {
    graph.neighbor_edges(v).flat_map(move |(nb, edge)| {
        graph.node(nb).labels.support().filter_map(move |l| {
            let lp = graph.label_prob(nb, l);
            let ep = if edge.a == v { edge.prob.prob(lv, l) } else { edge.prob.prob(l, lv) };
            (lp > 0.0 && ep > 0.0).then_some((nb, l, lp, ep))
        })
    })
}

/// Emits every entry [`build_index`] makes on `graph` whose path holds a
/// node `dirty` marks (ids past its end count as dirty), each once, with
/// the build's bits, in no particular order.
pub(crate) fn enumerate_dirty(
    config: &PathIndexConfig,
    graph: &EntityGraph,
    oracle: &dyn IdentityOracle,
    dirty: &[bool],
    sink: &mut Sink<'_>,
) {
    let l = config.max_len;
    let mut walk = Around {
        graph,
        oracle,
        config,
        dirty,
        seed: EntityId(0),
        nodes: vec![EntityId(0); 2 * l + 1],
        labels: vec![0; 2 * l + 1],
        lp: vec![0.0; 2 * l + 1],
        ep: vec![0.0; 2 * l + 1],
        lo: l,
        hi: l,
        uncertain: 0,
    };
    for seed in graph.node_ids().filter(|v| dirty.get(v.idx()).is_none_or(|d| *d)) {
        walk.seed = seed;
        for label in graph.node(seed).labels.support() {
            let lp = graph.label_prob(seed, label);
            walk.set(l, seed, label, lp);
            if walk.passes(lp) {
                walk.right(lp, sink);
            }
            walk.unset(l);
        }
    }
}

/// The walk behind [`enumerate_dirty`]: paths through one dirty `seed`,
/// held in `nodes[lo..=hi]` with the seed at slot `max_len`, so either
/// arm can grow the full length. `lp[i]` is slot `i`'s label probability,
/// `ep[i]` the edge probability between slots `i` and `i + 1`.
struct Around<'a> {
    graph: &'a EntityGraph,
    oracle: &'a dyn IdentityOracle,
    config: &'a PathIndexConfig,
    dirty: &'a [bool],
    seed: EntityId,
    nodes: Vec<EntityId>,
    labels: Vec<u16>,
    lp: Vec<f64>,
    ep: Vec<f64>,
    lo: usize,
    hi: usize,
    /// Nodes on the path that may not exist.
    uncertain: usize,
}

impl Around<'_> {
    /// Whether the path in `lo..=hi`, of `Prle` `prle` (in any product
    /// order), may lie on an indexable path: the anti-monotone prune.
    fn passes(&self, prle: f64) -> bool {
        let prn = match self.uncertain {
            0 => 1.0,
            _ => self.oracle.prn(&self.nodes[self.lo..=self.hi]),
        };
        prle * prn + PRUNE_SLACK >= self.config.beta
    }

    /// Whether `nb` may join the path: not on it, sharing no reference
    /// with it, and not a dirty node below the seed (the path is emitted
    /// from its smallest dirty node).
    fn admits(&self, nb: EntityId) -> bool {
        let path = &self.nodes[self.lo..=self.hi];
        let below_seed = nb < self.seed && self.dirty.get(nb.idx()).is_none_or(|d| *d);
        !(below_seed || path.contains(&nb) || self.graph.shares_ref_with_any(nb, path))
    }

    /// Puts `nb`, labelled `l` with probability `lp`, in slot `at`.
    fn set(&mut self, at: usize, nb: EntityId, l: Label, lp: f64) {
        (self.nodes[at], self.labels[at], self.lp[at]) = (nb, l.0, lp);
        self.uncertain += usize::from(!self.oracle.always_exists(nb));
    }

    /// Takes slot `at`'s node off the path's count of uncertain nodes.
    fn unset(&mut self, at: usize) {
        self.uncertain -= usize::from(!self.oracle.always_exists(self.nodes[at]));
    }

    /// Every right arm from slot `hi` on, and for each every left arm.
    fn right(&mut self, prle: f64, sink: &mut Sink<'_>) {
        self.left(prle, sink);
        if self.hi - self.lo == self.config.max_len {
            return;
        }
        let (v, lv) = (self.nodes[self.hi], Label(self.labels[self.hi]));
        for (nb, l, lp, ep) in steps(self.graph, v, lv) {
            if !self.admits(nb) {
                continue;
            }
            self.hi += 1;
            self.set(self.hi, nb, l, lp);
            self.ep[self.hi - 1] = ep;
            if self.passes(prle * lp * ep) {
                self.right(prle * lp * ep, sink);
            }
            self.unset(self.hi);
            self.hi -= 1;
        }
    }

    /// Emits the path, then every left arm from slot `lo` on.
    fn left(&mut self, prle: f64, sink: &mut Sink<'_>) {
        self.emit(sink);
        if self.hi - self.lo == self.config.max_len {
            return;
        }
        let (v, lv) = (self.nodes[self.lo], Label(self.labels[self.lo]));
        for (nb, l, lp, ep) in steps(self.graph, v, lv) {
            if !self.admits(nb) {
                continue;
            }
            self.lo -= 1;
            self.set(self.lo, nb, l, lp);
            self.ep[self.lo] = ep;
            if self.passes(prle * lp * ep) {
                self.left(prle * lp * ep, sink);
            }
            self.unset(self.lo);
            self.lo += 1;
        }
    }

    /// Emits the path in `lo..=hi` if the build walk from its first node
    /// would: it is canonical and every prefix passes the build's test,
    /// with `Prle` multiplied and `Prn` taken in the build's order.
    fn emit(&self, sink: &mut Sink<'_>) {
        let (nodes, labels) = (&self.nodes[self.lo..=self.hi], &self.labels[self.lo..=self.hi]);
        if !is_canonical(labels, nodes) {
            return;
        }
        let mut all_trivial = self.oracle.always_exists(nodes[0]);
        let mut prle = self.lp[self.lo];
        let mut prn = if all_trivial { 1.0 } else { self.oracle.prn(&nodes[..1]) };
        if prle * prn + EPS < self.config.beta {
            return;
        }
        for j in 1..nodes.len() {
            prle = prle * self.lp[self.lo + j] * self.ep[self.lo + j - 1];
            all_trivial = all_trivial && self.oracle.always_exists(nodes[j]);
            prn = if all_trivial { 1.0 } else { self.oracle.prn(&nodes[..=j]) };
            if prle * prn + EPS < self.config.beta {
                return;
            }
        }
        sink(labels, nodes, prle, prn);
    }
}

/// On-demand path enumeration for thresholds *below* the index's `β`
/// (the paper's footnote: such paths are "computed on demand").
///
/// Walks the graph constrained to the exact `labels` sequence, returning
/// all directed matches with total probability ≥ `min_prob` — none for an
/// empty sequence.
pub fn enumerate_paths_online(
    graph: &EntityGraph,
    oracle: &dyn IdentityOracle,
    labels: &[Label],
    min_prob: f64,
) -> PathMatches {
    let mut out = PathMatches::new(labels.len());
    if labels.is_empty() {
        return out;
    }
    let mut nodes: Vec<EntityId> = Vec::with_capacity(labels.len());
    for v in graph.node_ids() {
        let lp = graph.label_prob(v, labels[0]);
        if lp <= 0.0 {
            continue;
        }
        nodes.push(v);
        walk_seq(graph, oracle, labels, min_prob, lp, &mut nodes, &mut out);
        nodes.pop();
    }
    out
}

fn walk_seq(
    graph: &EntityGraph,
    oracle: &dyn IdentityOracle,
    labels: &[Label],
    min_prob: f64,
    prle: f64,
    nodes: &mut Vec<EntityId>,
    out: &mut PathMatches,
) {
    let depth = nodes.len();
    let prn = oracle.prn(nodes);
    if prle * prn + EPS < min_prob {
        return;
    }
    if depth == labels.len() {
        out.push(nodes.iter().map(|v| v.0), prle, prn);
        return;
    }
    let last = *nodes.last().unwrap();
    let want = labels[depth];
    let prev_label = labels[depth - 1];
    // The CSR row carries each neighbour's edge, so its CPT is read off the
    // row (in the orientation `EntityGraph::edge_prob` uses) instead of
    // probed for; the label and edge tests reject most neighbours and run
    // ahead of the reference scan.
    for (nb, edge) in graph.neighbor_edges(last) {
        let lp = graph.label_prob(nb, want);
        if lp <= 0.0 {
            continue;
        }
        let ep = if edge.a == last {
            edge.prob.prob(prev_label, want)
        } else {
            edge.prob.prob(want, prev_label)
        };
        if ep <= 0.0 {
            continue;
        }
        if nodes.contains(&nb) || graph.shares_ref_with_any(nb, nodes) {
            continue;
        }
        nodes.push(nb);
        walk_seq(graph, oracle, labels, min_prob, prle * lp * ep, nodes, out);
        nodes.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{NoIdentity, CHUNK};
    use graphstore::dist::{EdgeProbability, LabelDist};
    use graphstore::{EntityGraphBuilder, LabelTable, RefId};
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    /// Triangle a-b-c plus a pendant: labels x,y,z,x; all edges prob 0.8.
    fn small_graph() -> EntityGraph {
        let table = LabelTable::from_names(["x", "y", "z"]);
        let n = table.len();
        let mut b = EntityGraphBuilder::new(table);
        let v0 = b.add_node(LabelDist::delta(Label(0), n), vec![RefId(0)]);
        let v1 = b.add_node(LabelDist::delta(Label(1), n), vec![RefId(1)]);
        let v2 = b.add_node(LabelDist::delta(Label(2), n), vec![RefId(2)]);
        let v3 = b.add_node(LabelDist::delta(Label(0), n), vec![RefId(3)]);
        for (u, v) in [(v0, v1), (v1, v2), (v0, v2), (v2, v3)] {
            b.add_edge(u, v, EdgeProbability::Independent(0.8));
        }
        b.build()
    }

    #[test]
    fn single_node_entries() {
        let g = small_graph();
        let cfg = PathIndexConfig { max_len: 0, beta: 0.5, ..Default::default() };
        let idx = build_index(&g, &NoIdentity, &cfg);
        // 4 nodes, one label each.
        assert_eq!(idx.n_entries(), 4);
        assert_eq!(idx.lookup(&[Label(0)], 0.5).len(), 2);
        assert_eq!(idx.lookup(&[Label(1)], 0.5).len(), 1);
    }

    #[test]
    fn length_one_paths_fold_symmetry() {
        let g = small_graph();
        let cfg = PathIndexConfig { max_len: 1, beta: 0.1, ..Default::default() };
        let idx = build_index(&g, &NoIdentity, &cfg);
        // Edges (x,y), (y,z), (x,z), (z,x): canonical label pairs.
        let xy = idx.lookup(&[Label(0), Label(1)], 0.1);
        assert_eq!(xy.len(), 1);
        let yx = idx.lookup(&[Label(1), Label(0)], 0.1);
        assert_eq!(yx.len(), 1);
        assert_eq!(xy.row(0).iter().rev().copied().collect::<Vec<_>>(), yx.row(0));
        // (x,z) matches two edges: v0-v2 and v3-v2.
        assert_eq!(idx.lookup(&[Label(0), Label(2)], 0.1).len(), 2);
    }

    #[test]
    fn beta_prunes_long_paths() {
        let g = small_graph();
        // Path of 2 edges has prob 0.8^2 = 0.64; of 3 edges 0.512.
        let cfg = PathIndexConfig { max_len: 3, beta: 0.6, ..Default::default() };
        let idx = build_index(&g, &NoIdentity, &cfg);
        let two = idx.lookup(&[Label(0), Label(1), Label(2)], 0.6);
        assert!(!two.is_empty());
        let three = idx.lookup(&[Label(0), Label(1), Label(2), Label(0)], 0.6);
        assert!(three.is_empty());
        // Lower beta admits them.
        let cfg2 = PathIndexConfig { max_len: 3, beta: 0.3, ..Default::default() };
        let idx2 = build_index(&g, &NoIdentity, &cfg2);
        assert!(!idx2.lookup(&[Label(0), Label(1), Label(2), Label(0)], 0.3).is_empty());
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let g = small_graph();
        let mut cfg = PathIndexConfig { max_len: 3, beta: 0.1, threads: 1, ..Default::default() };
        let seq = build_index(&g, &NoIdentity, &cfg);
        cfg.threads = 4;
        let par = build_index(&g, &NoIdentity, &cfg);
        assert_eq!(seq.n_entries(), par.n_entries());
        assert_eq!(entries(&seq), entries(&par), "the same entries in the same order");
        assert_sorted_chunks(&seq);
    }

    #[test]
    fn online_enumeration_matches_index() {
        let g = small_graph();
        let cfg = PathIndexConfig { max_len: 3, beta: 0.1, ..Default::default() };
        let idx = build_index(&g, &NoIdentity, &cfg);
        for labels in [
            vec![Label(0), Label(1)],
            vec![Label(0), Label(1), Label(2)],
            vec![Label(0), Label(2), Label(0)],
            vec![Label(2), Label(0)],
            vec![], // matches nothing, on either side
        ] {
            let mut a = idx.lookup(&labels, 0.2).to_vec();
            let mut b = enumerate_paths_online(&g, &NoIdentity, &labels, 0.2).to_vec();
            a.sort_by(|x, y| x.nodes.cmp(&y.nodes));
            b.sort_by(|x, y| x.nodes.cmp(&y.nodes));
            assert_eq!(a, b, "mismatch for {labels:?}");
        }
    }

    #[test]
    fn incremental_update_matches_rebuild() {
        let table = LabelTable::from_names(["x", "y", "z"]);
        let n = table.len();
        let build = |edge_prob: f64, pendant_label: Label| {
            let mut b = EntityGraphBuilder::new(table.clone());
            let v0 = b.add_node(LabelDist::delta(Label(0), n), vec![RefId(0)]);
            let v1 = b.add_node(LabelDist::delta(Label(1), n), vec![RefId(1)]);
            let v2 = b.add_node(LabelDist::delta(Label(2), n), vec![RefId(2)]);
            let v3 = b.add_node(LabelDist::delta(pendant_label, n), vec![RefId(3)]);
            for (u, v) in [(v0, v1), (v1, v2), (v0, v2)] {
                b.add_edge(u, v, EdgeProbability::Independent(0.8));
            }
            b.add_edge(v2, v3, EdgeProbability::Independent(edge_prob));
            b.build()
        };
        let before = build(0.8, Label(0));
        let after = build(0.5, Label(1));
        let cfg = PathIndexConfig { max_len: 3, beta: 0.1, threads: 1, ..Default::default() };

        let mut idx = build_index(&before, &NoIdentity, &cfg);
        // Edge (v2,v3) and v3's label changed: both endpoints are dirty.
        let dirty = vec![false, false, true, true];
        update_index(&mut idx, &before, &NoIdentity, &after, &NoIdentity, &dirty);

        let fresh = build_index(&after, &NoIdentity, &cfg);
        assert_eq!(idx.n_entries(), fresh.n_entries());
        assert_eq!(idx.n_sequences(), fresh.n_sequences());
        for (seq, se) in &fresh.map {
            let got = idx.map.get(seq).map(|s| &s.hist);
            assert_eq!(got, Some(&se.hist), "hist mismatch for {seq:?}");
        }
        for seq in fresh.map.keys() {
            let labels: Vec<Label> = seq.iter().map(|&l| Label(l)).collect();
            let mut a = idx.lookup(&labels, 0.0).to_vec();
            let mut b = fresh.lookup(&labels, 0.0).to_vec();
            a.sort_by(|x, y| x.nodes.cmp(&y.nodes));
            b.sort_by(|x, y| x.nodes.cmp(&y.nodes));
            assert_eq!(a, b, "entries mismatch for {seq:?}");
        }
    }

    #[test]
    fn update_drops_a_sequence_with_its_last_entry() {
        let table = LabelTable::from_names(["x", "y", "z"]);
        let n = table.len();
        // A path x - y - z/x: v2 is the only node that can carry z.
        let build = |last: Label| {
            let mut b = EntityGraphBuilder::new(table.clone());
            let v0 = b.add_node(LabelDist::delta(Label(0), n), vec![RefId(0)]);
            let v1 = b.add_node(LabelDist::delta(Label(1), n), vec![RefId(1)]);
            let v2 = b.add_node(LabelDist::delta(last, n), vec![RefId(2)]);
            b.add_edge(v0, v1, EdgeProbability::Independent(0.9));
            b.add_edge(v1, v2, EdgeProbability::Independent(0.9));
            b.build()
        };
        let cfg = PathIndexConfig { max_len: 2, beta: 0.1, threads: 1, ..Default::default() };
        let before = build(Label(2));
        let mut idx = build_index(&before, &NoIdentity, &cfg);
        for seq in [vec![2], vec![1, 2], vec![0, 1, 2]] {
            assert!(idx.map.contains_key(&seq), "{seq:?} indexed before the relabel");
        }

        let after = build(Label(0));
        update_index(&mut idx, &before, &NoIdentity, &after, &NoIdentity, &[false, false, true]);
        let fresh = build_index(&after, &NoIdentity, &cfg);
        for seq in [vec![2], vec![1, 2], vec![0, 1, 2]] {
            assert!(!idx.map.contains_key(&seq), "{seq:?} survived its last entry");
        }
        assert_eq!(idx.n_sequences(), fresh.n_sequences());
        assert_eq!(idx.n_entries(), fresh.n_entries());
        assert_eq!(idx.estimate_count(&[Label(1), Label(2)], 0.1), 0.0);
        assert!(idx.histogram_counts_where(&|_| true).iter().all(|(seq, _)| !seq.contains(&2)));
    }

    /// A graph of `labels.len()` nodes (label `l`, or `l % 3` at 0.6 and
    /// `l / 3 - 1` at 0.4 for `l ≥ 3`) with the given edges, plus one
    /// isolated node whose only label is below every β used here: it
    /// holds no index entry.
    fn graph(labels: &[u16], edges: &BTreeMap<(u32, u32), f64>) -> EntityGraph {
        let table = LabelTable::from_names(["x", "y", "z"]);
        let mut b = EntityGraphBuilder::new(table);
        for (i, &l) in labels.iter().enumerate() {
            let dist = match l {
                0..=2 => LabelDist::delta(Label(l), 3),
                _ => LabelDist::from_pairs(&[(Label(l % 3), 0.6), (Label(l / 3 - 1), 0.4)], 3),
            };
            b.add_node(dist, vec![RefId(i as u32)]);
        }
        b.add_node(LabelDist::from_pairs(&[(Label(0), 0.1)], 3), vec![RefId(labels.len() as u32)]);
        for (&(x, y), &p) in edges {
            b.add_edge(EntityId(x), EntityId(y), EdgeProbability::Independent(p));
        }
        b.build()
    }

    /// Per stored sequence: its matches at α = 0 (nodes, `Prle` and `Prn`
    /// bits) and the bits of its estimate at 0.45.
    type Answers = Vec<(Vec<u16>, Vec<(Vec<u32>, u64, u64)>, u64)>;

    /// Every lookup of `index`, bit for bit.
    fn answers(index: &PathIndex) -> Answers {
        let mut out: Vec<_> = index
            .map
            .keys()
            .map(|seq| {
                let labels: Vec<Label> = seq.iter().map(|&l| Label(l)).collect();
                let rows = index.lookup(&labels, 0.0);
                let rows =
                    rows.iter().map(|m| (m.nodes.to_vec(), m.prle.to_bits(), m.prn.to_bits()));
                (seq.clone(), rows.collect(), index.estimate_count(&labels, 0.45).to_bits())
            })
            .collect();
        out.sort();
        out
    }

    /// One stored entry: bucket, nodes, `Prle` and `Prn` bits.
    type Entry = (usize, Vec<u32>, u64, u64);

    /// Every entry of `index`, sequence by sequence (sorted), each bucket
    /// in stored order.
    fn entries(index: &PathIndex) -> Vec<(Vec<u16>, Vec<Entry>)> {
        let mut out: Vec<_> = index
            .map
            .iter()
            .map(|(seq, se)| {
                let rows = se.buckets.iter().enumerate().flat_map(|(b, bucket)| {
                    bucket
                        .iter(seq.len())
                        .map(move |e| (b, e.nodes.to_vec(), e.prle.to_bits(), e.prn.to_bits()))
                });
                (seq.clone(), rows.collect())
            })
            .collect();
        out.sort();
        out
    }

    /// Every bucket is ascending by node tuple, in chunks of 1 to
    /// [`CHUNK`] entries.
    fn assert_sorted_chunks(index: &PathIndex) {
        for (seq, se) in &index.map {
            for bucket in &se.buckets {
                for chunk in &bucket.chunks {
                    assert!((1..=CHUNK).contains(&chunk.len()), "a chunk of {seq:?}");
                }
                let rows: Vec<&[u32]> = bucket.iter(seq.len()).map(|e| e.nodes).collect();
                assert!(rows.windows(2).all(|w| w[0] < w[1]), "a bucket of {seq:?}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// An update leaves a fresh build's entries in order, shares every
        /// chunk no change falls into, and leaves the generation it was
        /// cloned from answering exactly as before.
        #[test]
        fn generations_share_buckets_and_stay_isolated(
            labels in proptest::collection::vec(0u16..9, 5..=10),
            raw in proptest::collection::vec((0u32..10, 0u32..10, 0.3f64..=1.0), 0..=20),
            changes in proptest::collection::vec((0u32..10, 0u32..10, 0.0f64..=1.0, 0u16..9), 1..=3),
            max_len in 1usize..=3,
        ) {
            let n = labels.len() as u32;
            let mut edges = BTreeMap::new();
            for (a, b, p) in raw {
                let (a, b) = (a % n, b % n);
                if a != b {
                    edges.insert((a.min(b), a.max(b)), p);
                }
            }
            // Each change relabels one node and sets or (p < 0.3) deletes
            // one edge; the nodes it touches are dirty.
            let (mut labels1, mut edges1) = (labels.clone(), edges.clone());
            let mut dirty = vec![false; n as usize + 1];
            for (a, b, p, l) in changes {
                let (a, b) = (a % n, b % n);
                labels1[a as usize] = l;
                dirty[a as usize] = true;
                if a != b {
                    let key = (a.min(b), a.max(b));
                    if p < 0.3 { edges1.remove(&key) } else { edges1.insert(key, p) };
                    dirty[b as usize] = true;
                }
            }
            let config = PathIndexConfig { max_len, beta: 0.15, threads: 1, ..Default::default() };
            let (g0, g1) = (graph(&labels, &edges), graph(&labels1, &edges1));
            let old = build_index(&g0, &NoIdentity, &config);
            let before = answers(&old);

            let mut new = old.clone();
            update_index(&mut new, &g0, &NoIdentity, &g1, &NoIdentity, &dirty);
            prop_assert_eq!(answers(&old), before, "the previous generation moved");
            let fresh = build_index(&g1, &NoIdentity, &config);
            prop_assert_eq!(entries(&new), entries(&fresh), "not a fresh build, in order");
            prop_assert_eq!(answers(&new), answers(&fresh));
            assert_sorted_chunks(&old);
            assert_sorted_chunks(&new);

            // A change is an entry in one generation and not, bit for bit,
            // in the other. A chunk covers the tuples from its first to
            // the next chunk's first; one no change falls into is shared.
            let (was, now) = (entries(&old), entries(&fresh));
            let set = |all: &[(Vec<u16>, Vec<Entry>)]| -> std::collections::BTreeSet<(Vec<u16>, Entry)> {
                all.iter().flat_map(|(s, rows)| rows.iter().map(move |r| (s.clone(), r.clone()))).collect()
            };
            let (was, now) = (set(&was), set(&now));
            let changed: Vec<&(Vec<u16>, Entry)> = was.symmetric_difference(&now).collect();
            for (seq, se) in &old.map {
                for (b, bucket) in se.buckets.iter().enumerate() {
                    for (c, chunk) in bucket.chunks.iter().enumerate() {
                        let from = (c > 0).then(|| chunk.row(0, seq.len()));
                        let to = bucket.chunks.get(c + 1).map(|next| next.row(0, seq.len()));
                        let hit = changed.iter().any(|(s, (cb, nodes, _, _))| {
                            s == seq && *cb == b
                                && from.is_none_or(|f| nodes.as_slice() >= f)
                                && to.is_none_or(|t| nodes.as_slice() < t)
                        });
                        if hit {
                            continue;
                        }
                        let kept = new.map.get(seq).map(|s| &s.buckets[b].chunks);
                        let shared = kept.is_some_and(|k| k.iter().any(|x| Arc::ptr_eq(x, chunk)));
                        prop_assert!(shared, "chunk {} of bucket {} of {:?} was copied", c, b, seq);
                    }
                }
            }

            // The isolated node holds no entry: marking only it dirty
            // changes no bucket, so every chunk stays shared.
            let mut quiet = vec![false; n as usize + 1];
            quiet[n as usize] = true;
            let mut same = old.clone();
            update_index(&mut same, &g0, &NoIdentity, &g0, &NoIdentity, &quiet);
            prop_assert_eq!(same.n_sequences(), old.n_sequences());
            for (seq, se) in &old.map {
                for (was, now) in se.buckets.iter().zip(&same.map[seq].buckets) {
                    prop_assert_eq!(was.chunks.len(), now.chunks.len());
                    for (x, y) in was.chunks.iter().zip(&now.chunks) {
                        prop_assert!(Arc::ptr_eq(x, y), "a chunk of {:?} was copied", seq);
                    }
                }
            }
        }
    }

    #[test]
    fn palindromic_sequences_counted_once_per_direction() {
        let g = small_graph();
        let cfg = PathIndexConfig { max_len: 2, beta: 0.1, ..Default::default() };
        let idx = build_index(&g, &NoIdentity, &cfg);
        // x-z-x path: v0-v2-v3 (labels x,z,x). Palindromic: both directions.
        let got = idx.lookup(&[Label(0), Label(2), Label(0)], 0.1);
        assert_eq!(got.len(), 2);
        let ns: Vec<Vec<u32>> = got.iter().map(|m| m.nodes.to_vec()).collect();
        assert!(ns.contains(&vec![0, 2, 3]));
        assert!(ns.contains(&vec![3, 2, 0]));
    }
}
