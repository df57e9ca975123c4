//! Index construction: parallel bounded-length path enumeration.
//!
//! Construction runs a depth-first enumeration of directed paths from every
//! start node, pruning by the anti-monotone bound `Prle · Prn ≥ β` (any
//! prefix of an indexable path is itself indexable — the property the paper
//! exploits to build length `l+1` from length `l`). Start nodes are
//! partitioned across the persistent [`pegpool`] worker pool (with a merge
//! barrier, mirroring the paper's per-length synchronization barrier);
//! each worker emits only canonically-oriented paths so every undirected
//! path/labeling pair is stored exactly once.

use crate::index::{
    cmp_with_reversed, count_hist, Fill, IdentityOracle, PathIndex, PathIndexConfig, PathMatches,
};
use graphstore::{EntityGraph, EntityId, Label, UNREACHED};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Probability slack for threshold comparisons.
const EPS: f64 = 1e-12;

/// Builds the context-aware path index for `graph`.
pub fn build_index(
    graph: &EntityGraph,
    oracle: &dyn IdentityOracle,
    config: &PathIndexConfig,
) -> PathIndex {
    let starts: Vec<u32> = (0..graph.n_nodes() as u32).collect();
    PathIndex::from_fill(enumerate(config, graph, oracle, &starts, None))
}

/// Where one [`update_index`] call spent its time.
#[derive(Clone, Copy, Debug, Default)]
pub struct IndexUpdateTimes {
    /// Step 1: the filtered copies of the buckets that hold a dirty node.
    pub drop: Duration,
    /// Steps 2–3: ball BFS, pruned re-enumeration and insertion.
    pub enumerate: Duration,
    /// Step 4: the sweep for emptied sequences (the histogram counts
    /// themselves are patched as entries leave and enter in steps 1
    /// and 3).
    pub histogram: Duration,
}

/// Patches `index` after a graph mutation, given the set of `dirty` nodes
/// (any node whose labels, incident edges, or existence component may
/// differ from the graph the index was built for; new nodes must be
/// marked dirty). Node ids must be stable across the mutation — the
/// entity-graph compiler guarantees this by tombstoning deletions.
///
/// `index` is typically a clone of the previous generation, which costs a
/// reference per bucket: buckets are shared, and this never writes to a
/// shared one. A bucket that holds no dirty node (its `holds` summary
/// says so without reading it) stays shared and loses no entry; a bucket
/// that holds one is replaced by a filtered copy; an insert into a bucket
/// still shared copies it first. The previous generation answers every
/// lookup exactly as before.
///
/// The result is entry- and histogram-identical to [`build_index`] on the
/// mutated graph:
///
/// 1. every stored entry touching a dirty node is dropped — each bucket
///    holding a dirty node becomes a copy of its other entries, in order
///    (clean entries are unaffected by construction of the dirty set);
/// 2. every canonical path containing a dirty node starts within
///    `max_len` hops of one, so re-running the enumeration from that ball,
///    emitting only dirty-touching paths, regenerates exactly the dropped
///    ones. The ball's BFS leaves each node's hop distance to the dirty
///    set, and the walk uses it: while it holds no dirty node it does not
///    step to a neighbour farther from every dirty node than it has edges
///    left under `max_len`. Nothing below such a step could be emitted —
///    no extension reaches a dirty node in time — so the prune is exact:
///    the emitted paths are the same, in the same order, and the walk
///    costs what lies on the way to a dirty node, not the whole ball to
///    full depth;
/// 3. the emitted paths are appended to their buckets, and histogram
///    counts go down by one per dropped entry and up by one per inserted
///    entry — the integers a recount over the patched buckets gives;
/// 4. sequences left without entries are removed entirely.
pub fn update_index(
    index: &mut PathIndex,
    graph: &EntityGraph,
    oracle: &dyn IdentityOracle,
    dirty: &[bool],
) -> IndexUpdateTimes {
    let mut times = IndexUpdateTimes::default();
    let is_dirty = |n: u32| dirty.get(n as usize).copied().unwrap_or(true);
    let grid = index.config().hist_grid.clone();

    // 1. Copy each bucket that holds a dirty node without the entries
    // through one; every other bucket stays shared.
    let t = Instant::now();
    let dirty_bits = node_bits(dirty);
    let mut removed = 0usize;
    for (seq, se) in index.map.iter_mut() {
        for b in se.buckets.iter_mut().filter(|b| b.holds_any(&dirty_bits)) {
            let hist = &mut se.hist;
            let dropped = |p: f64| {
                count_hist(hist, &grid, p, false);
                removed += 1;
            };
            *b = Arc::new(b.without(seq.len(), &dirty_bits, dropped));
        }
    }
    index.n_entries -= removed;
    times.drop = t.elapsed();

    // 2. Region: ball of `max_len` hops around the dirty set in the new
    // graph, by BFS, keeping every node's hop distance. The canonical
    // start of any path containing a dirty node lies inside it.
    let t = Instant::now();
    let dist = graph.hop_distances(is_dirty, index.config().max_len);
    let starts: Vec<u32> =
        (0..dist.len() as u32).filter(|&v| dist[v as usize] != UNREACHED).collect();

    // 3. Re-enumerate from the region, keeping only dirty-touching paths,
    // and append them.
    let fill = enumerate(index.config(), graph, oracle, &starts, Some(&dist));
    index.append(fill);
    times.enumerate = t.elapsed();

    // 4. Drop emptied sequences.
    let t = Instant::now();
    index.map.retain(|_, se| !se.is_empty());
    times.histogram = t.elapsed();
    times
}

/// `dirty` as a bitmap over node ids. Ids from `dirty.len()` up count as
/// dirty — the tail of the last word here, every later word by
/// [`Bucket::holds_any`]'s rule.
fn node_bits(dirty: &[bool]) -> Vec<u64> {
    let mut bits = vec![0u64; dirty.len().div_ceil(64)];
    for (v, _) in dirty.iter().enumerate().filter(|(_, d)| **d) {
        bits[v / 64] |= 1 << (v % 64);
    }
    if !dirty.len().is_multiple_of(64) {
        *bits.last_mut().expect("a partial word") |= !0u64 << (dirty.len() % 64);
    }
    bits
}

/// Paths emitted by one worker, flat: entry `i` spans
/// `ends[i - 1]..ends[i]` of `labels` and `nodes`.
#[derive(Default)]
struct Emitted {
    labels: Vec<u16>,
    nodes: Vec<u32>,
    ends: Vec<usize>,
    prle: Vec<f64>,
    prn: Vec<f64>,
}

/// Runs the enumeration from every node of `starts` and collects what it
/// emits: on one thread straight into the fill, on several through
/// per-worker buffers merged by worker index, so the entry order is a
/// function of the thread count alone.
fn enumerate(
    config: &PathIndexConfig,
    graph: &EntityGraph,
    oracle: &dyn IdentityOracle,
    starts: &[u32],
    dist: Option<&[u32]>,
) -> Fill {
    let mut fill = Fill::new(config.clone());
    let threads = if config.threads == 0 { pegpool::machine_lanes() } else { config.threads };
    let threads = threads.clamp(1, starts.len().max(1));
    if threads == 1 {
        let mut sink = |seq: &[u16], nodes: &[EntityId], prle: f64, prn: f64| {
            fill.insert(seq, nodes.iter().map(|v| v.0), prle, prn);
        };
        for &v in starts {
            enumerate_from(graph, oracle, config, EntityId(v), dist, &mut sink);
        }
        return fill;
    }
    // Strided partitioning over start nodes on the shared persistent pool.
    let partials: Vec<Emitted> = pegpool::pool_with(threads).map(threads, |t| {
        let mut out = Emitted::default();
        let mut sink = |seq: &[u16], nodes: &[EntityId], prle: f64, prn: f64| {
            out.labels.extend_from_slice(seq);
            out.nodes.extend(nodes.iter().map(|v| v.0));
            out.ends.push(out.nodes.len());
            out.prle.push(prle);
            out.prn.push(prn);
        };
        for &v in starts.iter().skip(t).step_by(threads) {
            enumerate_from(graph, oracle, config, EntityId(v), dist, &mut sink);
        }
        out
    });
    for partial in partials {
        let mut from = 0;
        for (i, &to) in partial.ends.iter().enumerate() {
            let nodes = partial.nodes[from..to].iter().copied();
            fill.insert(&partial.labels[from..to], nodes, partial.prle[i], partial.prn[i]);
            from = to;
        }
    }
    fill
}

/// Receives one canonical path: label sequence, nodes, `Prle`, `Prn`.
type Sink<'a> = dyn FnMut(&[u16], &[EntityId], f64, f64) + 'a;

/// DFS state for one start node.
struct Walk<'a> {
    graph: &'a EntityGraph,
    oracle: &'a dyn IdentityOracle,
    config: &'a PathIndexConfig,
    /// Incremental update only: each node's hop distance to the dirty set
    /// (0 = dirty). Only paths holding a dirty node are emitted, and a
    /// walk holding none does not step where none is reachable with the
    /// edges it has left. `None` (full construction) reads as "every node
    /// is dirty".
    dist: Option<&'a [u32]>,
    /// Dirty nodes currently on the walk.
    n_dirty: usize,
    nodes: Vec<EntityId>,
    labels: Vec<u16>,
    all_trivial: bool,
}

impl Walk<'_> {
    fn dist(&self, v: EntityId) -> u32 {
        self.dist.map_or(0, |d| d[v.idx()])
    }
}

fn enumerate_from(
    graph: &EntityGraph,
    oracle: &dyn IdentityOracle,
    config: &PathIndexConfig,
    start: EntityId,
    dist: Option<&[u32]>,
    sink: &mut Sink<'_>,
) {
    let mut walk = Walk {
        graph,
        oracle,
        config,
        dist,
        n_dirty: 0,
        nodes: Vec::with_capacity(config.max_len + 1),
        labels: Vec::with_capacity(config.max_len + 1),
        all_trivial: true,
    };
    walk.n_dirty = usize::from(walk.dist(start) == 0);
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
        emit_if_canonical(&walk, lp, prn, sink);
        extend(&mut walk, lp, sink);
        walk.nodes.pop();
        walk.labels.pop();
    }
}

fn extend(walk: &mut Walk<'_>, prle: f64, sink: &mut Sink<'_>) {
    if walk.nodes.len() > walk.config.max_len {
        return;
    }
    // Edges a path may still take once it has stepped to a neighbour.
    let edges_left = (walk.config.max_len - walk.nodes.len()) as u32;
    let last = *walk.nodes.last().unwrap();
    let last_label = Label(*walk.labels.last().unwrap());
    let neighbor_count = walk.graph.neighbors(last).len();
    for k in 0..neighbor_count {
        let (nb, edge) = {
            let lo = walk.graph.neighbors(last)[k];
            (EntityId(lo), walk.graph.edge_between(last, EntityId(lo)).unwrap())
        };
        let nb_dist = walk.dist(nb);
        if walk.n_dirty == 0 && nb_dist > edges_left {
            continue;
        }
        if walk.nodes.contains(&nb) {
            continue;
        }
        if walk.graph.shares_ref_with_any(nb, &walk.nodes) {
            continue;
        }
        let nb_trivial = walk.oracle.always_exists(nb);
        let support: Vec<Label> = walk.graph.node(nb).labels.support().collect();
        walk.n_dirty += usize::from(nb_dist == 0);
        for l in support {
            let lp = walk.graph.label_prob(nb, l);
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
                emit_if_canonical(walk, new_prle, prn, sink);
                extend(walk, new_prle, sink);
            }
            walk.nodes.pop();
            walk.labels.pop();
            walk.all_trivial = was_trivial;
        }
        walk.n_dirty -= usize::from(nb_dist == 0);
    }
}

fn emit_if_canonical(walk: &Walk<'_>, prle: f64, prn: f64, sink: &mut Sink<'_>) {
    if walk.n_dirty == 0 {
        return;
    }
    let seq = &walk.labels;
    let is_canonical = match cmp_with_reversed(seq) {
        std::cmp::Ordering::Less => true,
        std::cmp::Ordering::Greater => false,
        std::cmp::Ordering::Equal => {
            walk.nodes.len() == 1 || walk.nodes[0].0 < walk.nodes[walk.nodes.len() - 1].0
        }
    };
    if is_canonical {
        sink(seq, &walk.nodes, prle, prn);
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
    use crate::index::{Bucket, NoIdentity};
    use graphstore::dist::{EdgeProbability, LabelDist};
    use graphstore::{EntityGraphBuilder, LabelTable, RefId};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

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
        for labels in [
            vec![Label(0)],
            vec![Label(0), Label(1)],
            vec![Label(0), Label(1), Label(2)],
            vec![Label(0), Label(2), Label(0)],
        ] {
            let mut a = seq.lookup(&labels, 0.1).to_vec();
            let mut b = par.lookup(&labels, 0.1).to_vec();
            a.sort_by(|x, y| x.nodes.cmp(&y.nodes));
            b.sort_by(|x, y| x.nodes.cmp(&y.nodes));
            assert_eq!(a, b, "mismatch for {labels:?}");
        }
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
        update_index(&mut idx, &after, &NoIdentity, &dirty);

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
        let mut idx = build_index(&build(Label(2)), &NoIdentity, &cfg);
        for seq in [vec![2], vec![1, 2], vec![0, 1, 2]] {
            assert!(idx.map.contains_key(&seq), "{seq:?} indexed before the relabel");
        }

        let after = build(Label(0));
        update_index(&mut idx, &after, &NoIdentity, &[false, false, true]);
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

    /// Each bucket's `holds` is exactly the set of nodes on its entries.
    fn assert_holds_exact(index: &PathIndex) {
        for (seq, se) in &index.map {
            for b in &se.buckets {
                let mut exact = Bucket { nodes: b.nodes.clone(), ..Bucket::default() };
                exact.seal();
                assert_eq!(b.holds, exact.holds, "holds of a bucket of {seq:?}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// An update shares every bucket it does not change and leaves the
        /// generation it was cloned from answering exactly as before.
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
            update_index(&mut new, &g1, &NoIdentity, &dirty);
            prop_assert_eq!(answers(&old), before, "the previous generation moved");
            // A patched bucket lists its re-enumerated entries last.
            let as_sets = |mut a: Answers| {
                a.iter_mut().for_each(|(_, rows, _)| rows.sort());
                a
            };
            let fresh = build_index(&g1, &NoIdentity, &config);
            prop_assert_eq!(as_sets(answers(&new)), as_sets(answers(&fresh)));
            assert_holds_exact(&old);
            assert_holds_exact(&new);
            for (seq, se) in &old.map {
                for (i, was) in se.buckets.iter().enumerate() {
                    let now = new.map.get(seq).map(|s| &s.buckets[i]);
                    let held_dirty = was.nodes.iter().any(|&v| dirty[v as usize]);
                    match now {
                        Some(now) if held_dirty => prop_assert!(!Arc::ptr_eq(was, now)),
                        // A clean bucket loses nothing: it is shared unless
                        // it gained entries, which then follow its own.
                        Some(now) if now.len() == was.len() => prop_assert!(Arc::ptr_eq(was, now)),
                        Some(now) => prop_assert_eq!(&now.nodes[..was.nodes.len()], &was.nodes[..]),
                        // Its sequence emptied: only empty buckets were clean.
                        None => prop_assert!(held_dirty || was.len() == 0, "{:?} vanished", seq),
                    }
                }
            }

            // The isolated node holds no entry: marking only it dirty
            // changes no bucket, so every one stays shared.
            let mut quiet = vec![false; n as usize + 1];
            quiet[n as usize] = true;
            let mut same = old.clone();
            update_index(&mut same, &g0, &NoIdentity, &quiet);
            prop_assert_eq!(same.n_sequences(), old.n_sequences());
            for (seq, se) in &old.map {
                for (was, now) in se.buckets.iter().zip(&same.map[seq].buckets) {
                    prop_assert!(Arc::ptr_eq(was, now), "a bucket of {:?} was copied", seq);
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
