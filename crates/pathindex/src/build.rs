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
    cmp_with_reversed, count_hist, IdentityOracle, PathIndex, PathIndexConfig, PathMatches,
};
use graphstore::{EntityGraph, EntityId, Label, UNREACHED};
use std::time::{Duration, Instant};

/// Probability slack for threshold comparisons.
const EPS: f64 = 1e-12;

/// Builds the context-aware path index for `graph`.
pub fn build_index(
    graph: &EntityGraph,
    oracle: &dyn IdentityOracle,
    config: &PathIndexConfig,
) -> PathIndex {
    let mut index = PathIndex::empty(config.clone());
    let starts: Vec<u32> = (0..graph.n_nodes() as u32).collect();
    enumerate_into(&mut index, graph, oracle, &starts, None);
    index.shrink_to_fit();
    index
}

/// Where one [`update_index`] call spent its time.
#[derive(Clone, Copy, Debug, Default)]
pub struct IndexUpdateTimes {
    /// Step 1: the linear drop pass over every bucket.
    pub drop: Duration,
    /// Steps 2–3: ball BFS, pruned re-enumeration and insertion.
    pub enumerate: Duration,
    /// Step 4: the sweep for emptied sequences and growth slack (the
    /// histogram counts themselves are patched as entries leave and enter
    /// in steps 1 and 3).
    pub histogram: Duration,
}

/// Incrementally patches `index` after a graph mutation, given the set of
/// `dirty` nodes (any node whose labels, incident edges, or existence
/// component may differ from the graph the index was built for; new nodes
/// must be marked dirty). Node ids must be stable across the mutation —
/// the entity-graph compiler guarantees this by tombstoning deletions.
///
/// The result is entry- and histogram-identical to [`build_index`] on the
/// mutated graph:
///
/// 1. every stored entry touching a dirty node is dropped, in one linear
///    pass over the flat node buffers that keeps the survivors' order
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
/// 3. histogram counts go down by one per dropped entry and up by one per
///    inserted entry — the integers a recount over the patched buckets
///    gives — and sequences left without entries are removed entirely.
pub fn update_index(
    index: &mut PathIndex,
    graph: &EntityGraph,
    oracle: &dyn IdentityOracle,
    dirty: &[bool],
) -> IndexUpdateTimes {
    let mut times = IndexUpdateTimes::default();
    let is_dirty = |n: u32| dirty.get(n as usize).copied().unwrap_or(true);
    let grid = index.config().hist_grid.clone();
    let max_len = index.config().max_len;

    // 1. Drop entries that touch a dirty node, compacting each bucket in
    // place.
    let t = Instant::now();
    let mut removed = 0usize;
    for (seq, se) in index.map.iter_mut() {
        let stride = seq.len();
        for b in se.buckets.iter_mut() {
            // Most buckets lose nothing: find the first entry to go before
            // moving anything.
            let touches = |e: &[u32]| e.iter().any(|&v| is_dirty(v));
            let Some(first) = b.nodes.chunks_exact(stride).position(touches) else {
                continue;
            };
            let mut kept = first;
            for i in first..b.len() {
                let at = i * stride;
                if touches(&b.nodes[at..at + stride]) {
                    count_hist(&mut se.hist, &grid, b.prle[i] * b.prn[i], false);
                    continue;
                }
                if kept != i {
                    b.nodes.copy_within(at..at + stride, kept * stride);
                    b.prle[kept] = b.prle[i];
                    b.prn[kept] = b.prn[i];
                }
                kept += 1;
            }
            removed += b.len() - kept;
            b.nodes.truncate(kept * stride);
            b.prle.truncate(kept);
            b.prn.truncate(kept);
        }
    }
    index.n_entries -= removed;
    times.drop = t.elapsed();

    // 2. Region: ball of `max_len` hops around the dirty set in the new
    // graph, by BFS, keeping every node's hop distance. The canonical
    // start of any path containing a dirty node lies inside it.
    let t = Instant::now();
    let dist = graph.hop_distances(is_dirty, max_len);
    let starts: Vec<u32> =
        (0..dist.len() as u32).filter(|&v| dist[v as usize] != UNREACHED).collect();

    // 3. Re-enumerate from the region, keeping only dirty-touching paths.
    enumerate_into(index, graph, oracle, &starts, Some(&dist));
    times.enumerate = t.elapsed();

    // 4. Drop emptied sequences, and give back what the buckets that grew
    // over-allocated: a generation lives as long as it is served.
    let t = Instant::now();
    index.map.retain(|_, se| !se.is_empty());
    index.shrink_to_fit();
    times.histogram = t.elapsed();
    times
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

/// Runs the enumeration from every node of `starts` and inserts what it
/// emits: on one thread straight into `index`, on several through
/// per-worker buffers merged by worker index, so the entry order is a
/// function of the thread count alone.
fn enumerate_into(
    index: &mut PathIndex,
    graph: &EntityGraph,
    oracle: &dyn IdentityOracle,
    starts: &[u32],
    dist: Option<&[u32]>,
) {
    let config = index.config().clone();
    let threads = if config.threads == 0 { pegpool::machine_lanes() } else { config.threads };
    let threads = threads.clamp(1, starts.len().max(1));
    if threads == 1 {
        let mut sink = |seq: &[u16], nodes: &[EntityId], prle: f64, prn: f64| {
            index.insert(seq, nodes.iter().map(|v| v.0), prle, prn);
        };
        for &v in starts {
            enumerate_from(graph, oracle, &config, EntityId(v), dist, &mut sink);
        }
        return;
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
            enumerate_from(graph, oracle, &config, EntityId(v), dist, &mut sink);
        }
        out
    });
    for partial in partials {
        let mut from = 0;
        for (i, &to) in partial.ends.iter().enumerate() {
            let nodes = partial.nodes[from..to].iter().copied();
            index.insert(&partial.labels[from..to], nodes, partial.prle[i], partial.prn[i]);
            from = to;
        }
    }
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
    use crate::index::NoIdentity;
    use graphstore::dist::{EdgeProbability, LabelDist};
    use graphstore::{EntityGraphBuilder, LabelTable, RefId};

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
