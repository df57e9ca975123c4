//! The probabilistic entity graph `G_U`: the structure query processing
//! operates on (Section 4, "Finding Matches").

use crate::dist::{EdgeProbability, LabelDist, LabelRow};
use crate::hash::FxHashMap;
use crate::labels::{Label, LabelTable};
use crate::refgraph::RefId;

/// Identifier of an entity node (one per reference set `s ∈ S`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntityId(pub u32);

impl EntityId {
    /// The id as an index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Debug for EntityId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A potential entity: merged label distribution plus the underlying
/// references (`refs(v)` of the paper), kept sorted for fast disjointness
/// tests. A view of one row of [`EntityNodes`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EntityNode<'a> {
    /// Merged label distribution `Pr(s.l)`.
    pub labels: LabelRow<'a>,
    /// Sorted underlying reference ids.
    pub refs: &'a [RefId],
}

/// The node payloads of an entity graph as flat columns: every node's
/// label probabilities in one row-major `n × |Σ|` vector, and every
/// node's sorted references in one CSR. Cloning it is three `memcpy`s,
/// not one heap object per node.
#[derive(Clone, Debug)]
pub struct EntityNodes {
    n_labels: usize,
    /// Row-major `[node][label]` probabilities.
    labels: Vec<f64>,
    /// CSR row offsets into `refs`, length `len() + 1`.
    ref_offsets: Vec<u32>,
    refs: Vec<RefId>,
}

impl EntityNodes {
    /// No nodes, over an alphabet of `n_labels`.
    pub fn new(n_labels: usize) -> Self {
        Self { n_labels, labels: Vec::new(), ref_offsets: vec![0], refs: Vec::new() }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.ref_offsets.len() - 1
    }

    /// True when there are no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a node; `refs` must be sorted and free of duplicates.
    pub fn push(&mut self, labels: &[f64], refs: &[RefId]) {
        assert_eq!(labels.len(), self.n_labels, "label alphabet mismatch");
        debug_assert!(refs.windows(2).all(|w| w[0] < w[1]), "refs sorted and distinct");
        self.labels.extend_from_slice(labels);
        self.refs.extend_from_slice(refs);
        self.ref_offsets.push(self.refs.len() as u32);
    }

    /// Overwrites node `i`'s label row.
    pub fn set_labels(&mut self, i: usize, labels: &[f64]) {
        let k = self.n_labels;
        self.labels[i * k..(i + 1) * k].copy_from_slice(labels);
    }

    /// Node `i`'s label row.
    #[inline]
    pub fn labels(&self, i: usize) -> LabelRow<'_> {
        let k = self.n_labels;
        LabelRow::new(&self.labels[i * k..(i + 1) * k])
    }

    /// Node `i`'s sorted references.
    #[inline]
    pub fn refs(&self, i: usize) -> &[RefId] {
        &self.refs[self.ref_offsets[i] as usize..self.ref_offsets[i + 1] as usize]
    }

    /// Node `i`.
    #[inline]
    pub fn get(&self, i: usize) -> EntityNode<'_> {
        EntityNode { labels: self.labels(i), refs: self.refs(i) }
    }

    /// Every node, in id order.
    pub fn iter(&self) -> NodeIter<'_> {
        NodeIter { nodes: self, range: 0..self.len() }
    }
}

impl<'a> IntoIterator for &'a EntityNodes {
    type Item = EntityNode<'a>;
    type IntoIter = NodeIter<'a>;

    fn into_iter(self) -> NodeIter<'a> {
        self.iter()
    }
}

/// Iterator over the rows of [`EntityNodes`].
#[derive(Clone, Debug)]
pub struct NodeIter<'a> {
    nodes: &'a EntityNodes,
    range: std::ops::Range<usize>,
}

impl<'a> Iterator for NodeIter<'a> {
    type Item = EntityNode<'a>;

    fn next(&mut self) -> Option<EntityNode<'a>> {
        self.range.next().map(|i| self.nodes.get(i))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl ExactSizeIterator for NodeIter<'_> {}

/// One undirected edge with its merged existence probability.
#[derive(Clone, Debug)]
pub struct EntityEdge {
    /// First endpoint (CPT rows refer to this endpoint's label).
    pub a: EntityId,
    /// Second endpoint.
    pub b: EntityId,
    /// Merged existence probability `Pr((s1,s2).e)`.
    pub prob: EdgeProbability,
}

/// The entity-level graph: CSR adjacency over entity nodes with probability
/// payloads on nodes and edges.
///
/// Nodes whose reference sets intersect can never co-exist in a possible
/// world; [`EntityGraph::refs_disjoint`] is the test used throughout the
/// matching pipeline.
#[derive(Clone, Debug)]
pub struct EntityGraph {
    labels: LabelTable,
    nodes: EntityNodes,
    edges: Vec<EntityEdge>,
    /// CSR row offsets, length `n_nodes + 1`.
    offsets: Vec<u32>,
    /// Neighbor node ids, grouped per node.
    neighbors: Vec<u32>,
    /// Edge index parallel to `neighbors`.
    edge_idx: Vec<u32>,
    /// Canonical `(min, max)` endpoint pair to edge index.
    edge_map: FxHashMap<(u32, u32), u32>,
}

impl EntityGraph {
    /// Number of entity nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of undirected edges.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// The label alphabet.
    pub fn label_table(&self) -> &LabelTable {
        &self.labels
    }

    /// Node payload.
    #[inline]
    pub fn node(&self, v: EntityId) -> EntityNode<'_> {
        self.nodes.get(v.idx())
    }

    /// Every node payload, indexed by id.
    pub fn nodes(&self) -> &EntityNodes {
        &self.nodes
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = EntityId> {
        (0..self.nodes.len() as u32).map(EntityId)
    }

    /// All edges.
    pub fn edges(&self) -> &[EntityEdge] {
        &self.edges
    }

    /// `Pr(v.l = label)`.
    #[inline]
    pub fn label_prob(&self, v: EntityId, label: Label) -> f64 {
        self.nodes.labels(v.idx()).prob(label)
    }

    /// Neighbor ids of `v` (Γ(v)).
    #[inline]
    pub fn neighbors(&self, v: EntityId) -> &[u32] {
        let lo = self.offsets[v.idx()] as usize;
        let hi = self.offsets[v.idx() + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// Neighbors of `v` paired with their connecting edge.
    pub fn neighbor_edges(&self, v: EntityId) -> impl Iterator<Item = (EntityId, &EntityEdge)> {
        let lo = self.offsets[v.idx()] as usize;
        let hi = self.offsets[v.idx() + 1] as usize;
        self.neighbors[lo..hi]
            .iter()
            .zip(&self.edge_idx[lo..hi])
            .map(move |(&n, &e)| (EntityId(n), &self.edges[e as usize]))
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: EntityId) -> usize {
        (self.offsets[v.idx() + 1] - self.offsets[v.idx()]) as usize
    }

    /// The edge between `u` and `v`, if present.
    pub fn edge_between(&self, u: EntityId, v: EntityId) -> Option<&EntityEdge> {
        let key = (u.0.min(v.0), u.0.max(v.0));
        self.edge_map.get(&key).map(|&i| &self.edges[i as usize])
    }

    /// Existence probability of edge `(u, v)` when `u` has label `lu` and
    /// `v` has label `lv`; zero when no edge is stored.
    pub fn edge_prob(&self, u: EntityId, v: EntityId, lu: Label, lv: Label) -> f64 {
        match self.edge_between(u, v) {
            None => 0.0,
            Some(e) => {
                if e.a == u {
                    e.prob.prob(lu, lv)
                } else {
                    e.prob.prob(lv, lu)
                }
            }
        }
    }

    /// Upper-bound existence probability of edge `(u, v)` over all labels.
    pub fn edge_prob_max(&self, u: EntityId, v: EntityId) -> f64 {
        self.edge_between(u, v).map_or(0.0, |e| e.prob.max_prob())
    }

    /// Upper-bound edge probability when only `u`'s label is known.
    pub fn edge_prob_max_given(&self, u: EntityId, v: EntityId, lu: Label) -> f64 {
        match self.edge_between(u, v) {
            None => 0.0,
            Some(e) => e.prob.max_given(lu, e.a == u),
        }
    }

    /// True when `u` and `v` share no underlying reference (so they may
    /// co-occur in a possible world).
    pub fn refs_disjoint(&self, u: EntityId, v: EntityId) -> bool {
        sorted_disjoint(self.nodes.refs(u.idx()), self.nodes.refs(v.idx()))
    }

    /// True when node `v` shares a reference with *any* node in `others`.
    pub fn shares_ref_with_any(&self, v: EntityId, others: &[EntityId]) -> bool {
        others.iter().any(|&o| o != v && !self.refs_disjoint(v, o))
    }

    /// Bounded multi-source BFS: per node, its hop distance to the nearest
    /// node `is_seed` accepts (0 for a seed), out to `radius` hops, and
    /// [`UNREACHED`] beyond. The ball walk behind a shard's halo and the
    /// shards a mutation reaches.
    pub fn hop_distances(&self, is_seed: impl Fn(u32) -> bool, radius: usize) -> Vec<u32> {
        let n = self.n_nodes();
        let mut dist = vec![UNREACHED; n];
        let mut frontier: Vec<u32> = (0..n as u32).filter(|&v| is_seed(v)).collect();
        for &v in &frontier {
            dist[v as usize] = 0;
        }
        for hops in 1..=radius as u32 {
            if frontier.is_empty() {
                break;
            }
            let mut next = Vec::new();
            for &v in &frontier {
                for &nb in self.neighbors(EntityId(v)) {
                    if dist[nb as usize] == UNREACHED {
                        dist[nb as usize] = hops;
                        next.push(nb);
                    }
                }
            }
            frontier = next;
        }
        dist
    }
}

/// True when two ascending reference lists share no reference: a
/// sorted-merge intersection test.
pub fn sorted_disjoint(a: &[RefId], b: &[RefId]) -> bool {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return false,
        }
    }
    true
}

/// What [`EntityGraph::hop_distances`] reports for a node farther than its
/// radius from every seed.
pub const UNREACHED: u32 = u32::MAX;

/// Builder accumulating nodes/edges before CSR construction.
#[derive(Debug)]
pub struct EntityGraphBuilder {
    labels: LabelTable,
    nodes: EntityNodes,
    edges: Vec<EntityEdge>,
    edge_map: FxHashMap<(u32, u32), u32>,
}

impl EntityGraphBuilder {
    /// Starts a builder over the given label alphabet.
    pub fn new(labels: LabelTable) -> Self {
        let nodes = EntityNodes::new(labels.len());
        Self { labels, nodes, edges: Vec::new(), edge_map: FxHashMap::default() }
    }

    /// The label alphabet being built against.
    pub fn label_table(&self) -> &LabelTable {
        &self.labels
    }

    /// Adds a node; `refs` is sorted and deduplicated internally.
    pub fn add_node(&mut self, labels: LabelDist, mut refs: Vec<RefId>) -> EntityId {
        assert_eq!(labels.n_labels(), self.labels.len(), "label alphabet mismatch");
        refs.sort_unstable();
        refs.dedup();
        let id = EntityId(self.nodes.len() as u32);
        self.nodes.push(labels.as_slice(), &refs);
        id
    }

    /// Adds an undirected edge. Replaces the probability if the edge exists.
    ///
    /// # Panics
    /// Panics on self-loops or out-of-range endpoints.
    pub fn add_edge(&mut self, u: EntityId, v: EntityId, prob: EdgeProbability) {
        assert_ne!(u, v, "self loops are not part of the model");
        assert!(u.idx() < self.nodes.len() && v.idx() < self.nodes.len(), "endpoint out of range");
        let key = (u.0.min(v.0), u.0.max(v.0));
        if let Some(&i) = self.edge_map.get(&key) {
            self.edges[i as usize] = EntityEdge { a: u, b: v, prob };
        } else {
            let i = self.edges.len() as u32;
            self.edges.push(EntityEdge { a: u, b: v, prob });
            self.edge_map.insert(key, i);
        }
    }

    /// Number of nodes added so far.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Finalizes into CSR form.
    pub fn build(self) -> EntityGraph {
        EntityGraph::assemble(self.labels, self.nodes, self.edges, self.edge_map)
    }
}

/// Canonical `(min, max)` endpoint key of an edge.
#[inline]
fn edge_key(e: &EntityEdge) -> (u32, u32) {
    (e.a.0.min(e.b.0), e.a.0.max(e.b.0))
}

impl EntityGraph {
    /// A graph over `nodes` with exactly `edges`, which come sorted by
    /// `(a, b)` with `a < b` and no pair twice — the order the entity-graph
    /// compiler emits. The edge map and CSR are built straight from that
    /// order, and every adjacency row comes out sorted.
    pub fn from_sorted_edges(
        labels: LabelTable,
        nodes: EntityNodes,
        edges: Vec<EntityEdge>,
    ) -> EntityGraph {
        debug_assert!(edges.windows(2).all(|w| edge_key(&w[0]) < edge_key(&w[1])));
        let mut edge_map = FxHashMap::default();
        edge_map.reserve(edges.len());
        edge_map.extend(edges.iter().enumerate().map(|(i, e)| (edge_key(e), i as u32)));
        EntityGraph::assemble(labels, nodes, edges, edge_map)
    }

    /// The CSR over `edges`, each row sorted by neighbour id.
    fn assemble(
        labels: LabelTable,
        nodes: EntityNodes,
        edges: Vec<EntityEdge>,
        edge_map: FxHashMap<(u32, u32), u32>,
    ) -> EntityGraph {
        let n = nodes.len();
        let mut offsets = vec![0u32; n + 1];
        for e in &edges {
            offsets[e.a.idx() + 1] += 1;
            offsets[e.b.idx() + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let total = offsets[n] as usize;
        let mut neighbors = vec![0u32; total];
        let mut edge_idx = vec![0u32; total];
        let mut cursor = offsets.clone();
        for (i, e) in edges.iter().enumerate() {
            let (a, b) = (e.a.idx(), e.b.idx());
            let ca = cursor[a] as usize;
            neighbors[ca] = e.b.0;
            edge_idx[ca] = i as u32;
            cursor[a] += 1;
            let cb = cursor[b] as usize;
            neighbors[cb] = e.a.0;
            edge_idx[cb] = i as u32;
            cursor[b] += 1;
        }
        // Sort each adjacency row by neighbor id for deterministic
        // iteration. Edges in `(a, b)` order fill every row in order
        // already.
        let mut row: Vec<(u32, u32)> = Vec::new();
        for v in 0..n {
            let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
            if neighbors[lo..hi].is_sorted() {
                continue;
            }
            row.clear();
            row.extend(neighbors[lo..hi].iter().copied().zip(edge_idx[lo..hi].iter().copied()));
            row.sort_unstable();
            for (k, &(nb, ei)) in row.iter().enumerate() {
                neighbors[lo + k] = nb;
                edge_idx[lo + k] = ei;
            }
        }
        EntityGraph { labels, nodes, edges, offsets, neighbors, edge_idx, edge_map }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> EntityGraph {
        let table = LabelTable::from_names(["a", "r", "i"]);
        let n = table.len();
        let mut b = EntityGraphBuilder::new(table);
        let v0 = b.add_node(LabelDist::delta(Label(0), n), vec![RefId(0)]);
        let v1 = b.add_node(LabelDist::delta(Label(1), n), vec![RefId(1)]);
        let v2 = b.add_node(
            LabelDist::from_pairs(&[(Label(1), 0.5), (Label(2), 0.5)], n),
            vec![RefId(1), RefId(2)],
        );
        b.add_edge(v0, v1, EdgeProbability::Independent(0.9));
        b.add_edge(v0, v2, EdgeProbability::Independent(0.75));
        b.build()
    }

    #[test]
    fn csr_adjacency() {
        let g = tiny();
        assert_eq!(g.n_nodes(), 3);
        assert_eq!(g.n_edges(), 2);
        assert_eq!(g.neighbors(EntityId(0)), &[1, 2]);
        assert_eq!(g.neighbors(EntityId(1)), &[0]);
        assert_eq!(g.degree(EntityId(0)), 2);
        let nbrs: Vec<(EntityId, f64)> =
            g.neighbor_edges(EntityId(0)).map(|(v, e)| (v, e.prob.max_prob())).collect();
        assert_eq!(nbrs, vec![(EntityId(1), 0.9), (EntityId(2), 0.75)]);
    }

    #[test]
    fn edge_lookup_and_probs() {
        let g = tiny();
        assert!(g.edge_between(EntityId(0), EntityId(1)).is_some());
        assert!(g.edge_between(EntityId(1), EntityId(0)).is_some());
        assert!(g.edge_between(EntityId(1), EntityId(2)).is_none());
        assert_eq!(g.edge_prob(EntityId(0), EntityId(2), Label(0), Label(2)), 0.75);
        assert_eq!(g.edge_prob(EntityId(1), EntityId(2), Label(0), Label(0)), 0.0);
        assert_eq!(g.edge_prob_max(EntityId(0), EntityId(1)), 0.9);
    }

    #[test]
    fn refs_disjointness() {
        let g = tiny();
        assert!(g.refs_disjoint(EntityId(0), EntityId(1)));
        assert!(!g.refs_disjoint(EntityId(1), EntityId(2)));
        assert!(g.shares_ref_with_any(EntityId(2), &[EntityId(0), EntityId(1)]));
        assert!(!g.shares_ref_with_any(EntityId(0), &[EntityId(1), EntityId(2)]));
    }

    #[test]
    fn conditional_edge_orientation() {
        let table = LabelTable::from_names(["x", "y"]);
        let n = table.len();
        let mut b = EntityGraphBuilder::new(table);
        let v0 = b.add_node(LabelDist::delta(Label(0), n), vec![RefId(0)]);
        let v1 = b.add_node(LabelDist::delta(Label(1), n), vec![RefId(1)]);
        // Asymmetric CPT: rows = label of first endpoint (v0).
        let mut cpt = crate::dist::CondTable::zeros(n);
        cpt.set(Label(0), Label(1), 0.9);
        cpt.set(Label(1), Label(0), 0.1);
        b.add_edge(v0, v1, EdgeProbability::Conditional(cpt));
        let g = b.build();
        // Query with u = v0 (labels in stored orientation).
        assert_eq!(g.edge_prob(v0, v1, Label(0), Label(1)), 0.9);
        // Query with u = v1 must flip orientation.
        assert_eq!(g.edge_prob(v1, v0, Label(1), Label(0)), 0.9);
        assert_eq!(g.edge_prob(v1, v0, Label(0), Label(1)), 0.1);
    }

    #[test]
    fn add_edge_replaces() {
        let table = LabelTable::from_names(["x"]);
        let mut b = EntityGraphBuilder::new(table);
        let v0 = b.add_node(LabelDist::delta(Label(0), 1), vec![RefId(0)]);
        let v1 = b.add_node(LabelDist::delta(Label(0), 1), vec![RefId(1)]);
        b.add_edge(v0, v1, EdgeProbability::Independent(0.2));
        b.add_edge(v1, v0, EdgeProbability::Independent(0.6));
        let g = b.build();
        assert_eq!(g.n_edges(), 1);
        assert_eq!(g.edge_prob_max(v0, v1), 0.6);
    }

    #[test]
    #[should_panic(expected = "self loops")]
    fn self_loop_panics() {
        let table = LabelTable::from_names(["x"]);
        let mut b = EntityGraphBuilder::new(table);
        let v0 = b.add_node(LabelDist::delta(Label(0), 1), vec![RefId(0)]);
        b.add_edge(v0, v0, EdgeProbability::Independent(0.5));
    }
}
