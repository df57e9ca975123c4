//! The reference-level network: the storage half of the probabilistic graph
//! description (PGD, Definition 1).

use crate::dist::{EdgeProbability, LabelDist, LabelRow};
use crate::hash::FxHashMap;
use crate::labels::LabelTable;

/// Identifier of an observed reference (a mention of an object).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RefId(pub u32);

impl RefId {
    /// The id as an index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Debug for RefId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Identifier of a reference set (a potential entity, `s ∈ S`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RefSetId(pub u32);

/// A reference with its label distribution `p_r(r.x)`: a view of one row
/// of the network's flat label column.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RefNode<'a> {
    /// Distribution over Σ for this reference's label.
    pub labels: LabelRow<'a>,
}

/// An uncertain reference-level edge with `p_{(r1,r2)}((r1,r2).x)`.
#[derive(Clone, Debug)]
pub struct RefEdge {
    /// First endpoint (CPT rows refer to this endpoint's label).
    pub a: RefId,
    /// Second endpoint.
    pub b: RefId,
    /// Existence probability (independent or label-conditional).
    pub prob: EdgeProbability,
}

/// A *non-singleton* reference set with its raw node-existence factor value
/// `p_s(s.x = T)`.
///
/// Singleton sets `{r}` exist implicitly for every reference; their factor
/// values default to `1.0` and can be overridden with
/// [`RefGraph::set_singleton_weight`]. Raw factor values are combined and
/// normalized per connected component (Equation 7), so only their ratios
/// matter.
#[derive(Clone, Debug)]
pub struct RefSet {
    /// Member references (sorted, deduplicated, ≥ 2 elements).
    pub members: Vec<RefId>,
    /// Raw factor value `p_s(s.x = T)`.
    pub weight: f64,
}

/// One entry of the entity creation log: every reference contributes its
/// implicit singleton set, every declared set contributes itself.
///
/// Entity ids in the compiled PEG are *positions in this log*, so ids are
/// stable under live mutation: appends land at the end, deletes tombstone
/// in place, and a rebuild of the mutated network reproduces the exact
/// ids the incremental path kept. For a network built refs-first (every
/// generator in `datagen` does this) the log order coincides with the
/// historical "singletons first, then declared sets" numbering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EntityRef {
    /// The implicit singleton set of a reference.
    Singleton(RefId),
    /// A declared non-singleton set.
    Set(RefSetId),
}

/// The reference-level input network.
///
/// Together with a pair of merge functions this is a complete PGD
/// `D = (R, S, Σ, P, mΣ, m{T,F})`; `pegmatch::model` compiles it into a
/// probabilistic entity graph.
#[derive(Clone, Debug)]
pub struct RefGraph {
    labels: LabelTable,
    /// Per-reference label probabilities, row-major `[ref][label]`.
    ref_labels: Vec<f64>,
    edges: Vec<RefEdge>,
    edge_map: FxHashMap<(u32, u32), u32>,
    sets: Vec<RefSet>,
    singleton_weights: FxHashMap<RefId, f64>,
    /// Entity creation log; see [`EntityRef`].
    entities: Vec<EntityRef>,
    /// Liveness per reference (tombstoned by [`RefGraph::delete_ref`]).
    ref_alive: Vec<bool>,
    /// Liveness per declared set.
    set_alive: Vec<bool>,
    /// Creation-log position of each reference's singleton entity.
    singleton_pos: Vec<u32>,
    /// Creation-log position of each declared set's entity.
    set_pos: Vec<u32>,
    /// Per reference, the creation-log positions of the declared sets
    /// containing it (live or dead), ascending.
    containing_sets: Vec<Vec<u32>>,
}

impl RefGraph {
    /// An empty network over the given alphabet.
    pub fn new(labels: LabelTable) -> Self {
        Self {
            labels,
            ref_labels: Vec::new(),
            edges: Vec::new(),
            edge_map: FxHashMap::default(),
            sets: Vec::new(),
            singleton_weights: FxHashMap::default(),
            entities: Vec::new(),
            ref_alive: Vec::new(),
            set_alive: Vec::new(),
            singleton_pos: Vec::new(),
            set_pos: Vec::new(),
            containing_sets: Vec::new(),
        }
    }

    /// A copy with room for `n` more references, edges, sets and
    /// entities, so that applying `n` ops to it appends in place: a plain
    /// clone has no spare capacity, and its first new edge would copy the
    /// whole edge list once more.
    pub fn clone_with_room(&self, n: usize) -> RefGraph {
        fn with_room<T: Clone>(v: &[T], extra: usize) -> Vec<T> {
            let mut out = Vec::with_capacity(v.len() + extra);
            out.extend_from_slice(v);
            out
        }
        RefGraph {
            labels: self.labels.clone(),
            ref_labels: with_room(&self.ref_labels, n * self.labels.len()),
            edges: with_room(&self.edges, n),
            edge_map: self.edge_map.clone(),
            sets: with_room(&self.sets, n),
            singleton_weights: self.singleton_weights.clone(),
            entities: with_room(&self.entities, n),
            ref_alive: with_room(&self.ref_alive, n),
            set_alive: with_room(&self.set_alive, n),
            singleton_pos: with_room(&self.singleton_pos, n),
            set_pos: with_room(&self.set_pos, n),
            containing_sets: with_room(&self.containing_sets, n),
        }
    }

    /// The label alphabet.
    pub fn label_table(&self) -> &LabelTable {
        &self.labels
    }

    /// Adds a reference with label distribution `labels`.
    pub fn add_ref(&mut self, labels: LabelDist) -> RefId {
        assert_eq!(labels.n_labels(), self.labels.len(), "label alphabet mismatch");
        let id = RefId(self.n_refs() as u32);
        self.ref_labels.extend_from_slice(labels.as_slice());
        self.ref_alive.push(true);
        self.singleton_pos.push(self.entities.len() as u32);
        self.containing_sets.push(Vec::new());
        self.entities.push(EntityRef::Singleton(id));
        id
    }

    /// Adds (or replaces) an undirected uncertain edge.
    ///
    /// # Panics
    /// Panics on self loops or out-of-range endpoints.
    pub fn add_edge(&mut self, a: RefId, b: RefId, prob: EdgeProbability) {
        assert_ne!(a, b, "self loops are not part of the model");
        assert!(a.idx() < self.n_refs() && b.idx() < self.n_refs(), "endpoint out of range");
        let key = (a.0.min(b.0), a.0.max(b.0));
        if let Some(&i) = self.edge_map.get(&key) {
            self.edges[i as usize] = RefEdge { a, b, prob };
        } else {
            let i = self.edges.len() as u32;
            self.edges.push(RefEdge { a, b, prob });
            self.edge_map.insert(key, i);
        }
    }

    /// Declares a non-singleton reference set with raw factor value `weight`.
    ///
    /// # Panics
    /// Panics if the set has fewer than two distinct members, an
    /// out-of-range member, or a negative weight.
    pub fn add_ref_set(&mut self, mut members: Vec<RefId>, weight: f64) -> RefSetId {
        members.sort_unstable();
        members.dedup();
        assert!(members.len() >= 2, "reference sets must have at least two members");
        assert!(members.iter().all(|r| r.idx() < self.n_refs()), "member out of range");
        assert!(weight >= 0.0, "negative set weight");
        let id = RefSetId(self.sets.len() as u32);
        let pos = self.entities.len() as u32;
        for m in &members {
            self.containing_sets[m.idx()].push(pos);
        }
        self.sets.push(RefSet { members, weight });
        self.set_alive.push(true);
        self.set_pos.push(pos);
        self.entities.push(EntityRef::Set(id));
        id
    }

    /// Convenience: declares a *pair* reference set `{a, b}` such that, if
    /// `a` and `b` belong to no other set, the normalized posterior
    /// probability of the merge is exactly `q` (and of staying separate,
    /// `1 − q`).
    ///
    /// Uses raw weights `√q` for the pair and `√(1−q)` for both singletons,
    /// so the merged configuration weighs `q` and the unmerged `1 − q` after
    /// the two per-reference factors multiply.
    pub fn add_pair_set_with_posterior(&mut self, a: RefId, b: RefId, q: f64) -> RefSetId {
        assert!((0.0..=1.0).contains(&q), "posterior out of range");
        self.set_singleton_weight(a, (1.0 - q).sqrt());
        self.set_singleton_weight(b, (1.0 - q).sqrt());
        self.add_ref_set(vec![a, b], q.sqrt())
    }

    /// Overrides the raw factor value of the singleton set `{r}` (default 1).
    pub fn set_singleton_weight(&mut self, r: RefId, weight: f64) {
        assert!(weight >= 0.0, "negative singleton weight");
        self.singleton_weights.insert(r, weight);
    }

    /// Raw factor value of the singleton `{r}`.
    pub fn singleton_weight(&self, r: RefId) -> f64 {
        self.singleton_weights.get(&r).copied().unwrap_or(1.0)
    }

    /// Number of references.
    pub fn n_refs(&self) -> usize {
        self.ref_alive.len()
    }

    /// Number of reference-level edges.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Reference payload.
    pub fn reference(&self, r: RefId) -> RefNode<'_> {
        let k = self.labels.len();
        RefNode { labels: LabelRow::new(&self.ref_labels[r.idx() * k..(r.idx() + 1) * k]) }
    }

    /// All reference-level edges.
    pub fn edges(&self) -> &[RefEdge] {
        &self.edges
    }

    /// The edge between `a` and `b`, if declared.
    pub fn edge_between(&self, a: RefId, b: RefId) -> Option<&RefEdge> {
        let key = (a.0.min(b.0), a.0.max(b.0));
        self.edge_map.get(&key).map(|&i| &self.edges[i as usize])
    }

    /// All declared non-singleton sets.
    pub fn ref_sets(&self) -> &[RefSet] {
        &self.sets
    }

    /// All reference ids.
    pub fn ref_ids(&self) -> impl Iterator<Item = RefId> {
        (0..self.n_refs() as u32).map(RefId)
    }

    /// The entity creation log: one entry per (implicit or declared) set,
    /// in creation order. Position in this log *is* the compiled entity id.
    pub fn entities(&self) -> &[EntityRef] {
        &self.entities
    }

    /// Number of entities in the creation log (live + tombstoned).
    pub fn n_entities(&self) -> usize {
        self.entities.len()
    }

    /// One declared set's payload by id.
    pub fn ref_set(&self, s: RefSetId) -> &RefSet {
        &self.sets[s.0 as usize]
    }

    /// Whether a reference is live (not tombstoned).
    pub fn ref_is_alive(&self, r: RefId) -> bool {
        self.ref_alive.get(r.idx()).copied().unwrap_or(false)
    }

    /// Whether a declared set is live. A set whose members include a
    /// tombstoned reference is dead regardless of this flag; see
    /// [`RefGraph::entity_is_dead`].
    pub fn set_is_alive(&self, s: RefSetId) -> bool {
        self.set_alive.get(s.0 as usize).copied().unwrap_or(false)
    }

    /// Whether the entity at creation-log position `i` is dead: its
    /// reference was deleted (singletons), or the set was deleted or lost
    /// a member (declared sets).
    pub fn entity_is_dead(&self, i: usize) -> bool {
        match self.entities[i] {
            EntityRef::Singleton(r) => !self.ref_is_alive(r),
            EntityRef::Set(s) => {
                !self.set_is_alive(s)
                    || self.ref_set(s).members.iter().any(|&m| !self.ref_is_alive(m))
            }
        }
    }

    /// The sorted member references of the entity at creation-log
    /// position `i`: a singleton's one reference, or a declared set's
    /// members. An entity's members never change.
    pub fn entity_refs(&self, i: usize) -> &[RefId] {
        match &self.entities[i] {
            EntityRef::Singleton(r) => std::slice::from_ref(r),
            EntityRef::Set(s) => &self.ref_set(*s).members,
        }
    }

    /// Raw factor value `p_s(s.x = T)` of the entity at creation-log
    /// position `i`.
    pub fn entity_weight(&self, i: usize) -> f64 {
        match self.entities[i] {
            EntityRef::Singleton(r) => self.singleton_weight(r),
            EntityRef::Set(s) => self.ref_set(s).weight,
        }
    }

    /// Entity id of the implicit singleton set of `r`.
    pub fn singleton_entity(&self, r: RefId) -> u32 {
        self.singleton_pos[r.idx()]
    }

    /// Entity id of declared set `s`.
    pub fn set_entity(&self, s: RefSetId) -> u32 {
        self.set_pos[s.0 as usize]
    }

    /// Entity ids of the declared sets containing `r`, live or dead, in
    /// creation order (the singleton `{r}` is [`RefGraph::singleton_entity`]).
    pub fn sets_containing(&self, r: RefId) -> &[u32] {
        &self.containing_sets[r.idx()]
    }

    /// Tombstones reference `r` and removes its incident edges. The
    /// singleton entity `{r}` and every declared set containing `r` become
    /// dead; entity ids are unchanged. No-op structure otherwise.
    pub fn delete_ref(&mut self, r: RefId) {
        assert!(r.idx() < self.n_refs(), "reference out of range");
        self.ref_alive[r.idx()] = false;
        let mut i = 0;
        while i < self.edges.len() {
            if self.edges[i].a == r || self.edges[i].b == r {
                self.remove_edge_at(i);
            } else {
                i += 1;
            }
        }
    }

    /// Removes the edge between `a` and `b` if declared; returns whether
    /// an edge was removed.
    pub fn delete_edge(&mut self, a: RefId, b: RefId) -> bool {
        let key = (a.0.min(b.0), a.0.max(b.0));
        match self.edge_map.get(&key) {
            Some(&i) => {
                self.remove_edge_at(i as usize);
                true
            }
            None => false,
        }
    }

    /// Replaces the label distribution of a reference.
    pub fn replace_ref_labels(&mut self, r: RefId, labels: LabelDist) {
        let k = self.labels.len();
        assert_eq!(labels.n_labels(), k, "label alphabet mismatch");
        self.ref_labels[r.idx() * k..(r.idx() + 1) * k].copy_from_slice(labels.as_slice());
    }

    /// Replaces the raw factor value of declared set `s`.
    pub fn replace_set_weight(&mut self, s: RefSetId, weight: f64) {
        assert!(weight >= 0.0, "negative set weight");
        self.sets[s.0 as usize].weight = weight;
    }

    /// Tombstones declared set `s`; member references stay live.
    pub fn delete_set(&mut self, s: RefSetId) {
        assert!((s.0 as usize) < self.sets.len(), "set out of range");
        self.set_alive[s.0 as usize] = false;
    }

    /// The live declared set with exactly these members, if any — the
    /// newest, should several match. Only the sets holding the smallest
    /// member are read.
    pub fn find_live_set(&self, members: &[RefId]) -> Option<RefSetId> {
        let mut sorted: Vec<RefId> = members.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let first = sorted.first().filter(|r| r.idx() < self.n_refs())?;
        self.sets_containing(*first)
            .iter()
            .rev()
            .filter_map(|&pos| match self.entities[pos as usize] {
                EntityRef::Set(s) => Some(s),
                EntityRef::Singleton(_) => None,
            })
            .find(|&s| self.set_is_alive(s) && self.ref_set(s).members == sorted)
    }

    /// Swap-removes edge `i` and patches the displaced edge's map slot.
    fn remove_edge_at(&mut self, i: usize) {
        let e = self.edges.swap_remove(i);
        self.edge_map.remove(&(e.a.0.min(e.b.0), e.a.0.max(e.b.0)));
        if i < self.edges.len() {
            let m = &self.edges[i];
            self.edge_map.insert((m.a.0.min(m.b.0), m.a.0.max(m.b.0)), i as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::Label;

    #[test]
    fn build_figure_one_reference_network() {
        let table = LabelTable::from_names(["a", "r", "i"]);
        let n = table.len();
        let (a, r, i) = (Label(0), Label(1), Label(2));
        let mut g = RefGraph::new(table);
        let r1 = g.add_ref(LabelDist::from_pairs(&[(r, 0.25), (i, 0.75)], n));
        let r2 = g.add_ref(LabelDist::delta(a, n));
        let r3 = g.add_ref(LabelDist::delta(r, n));
        let r4 = g.add_ref(LabelDist::delta(i, n));
        g.add_edge(r1, r2, EdgeProbability::Independent(0.9));
        g.add_edge(r2, r3, EdgeProbability::Independent(1.0));
        g.add_edge(r2, r4, EdgeProbability::Independent(0.5));
        g.add_pair_set_with_posterior(r3, r4, 0.8);

        assert_eq!(g.n_refs(), 4);
        assert_eq!(g.n_edges(), 3);
        assert_eq!(g.ref_sets().len(), 1);
        let set = &g.ref_sets()[0];
        assert_eq!(set.members, vec![r3, r4]);
        assert!((set.weight - 0.8f64.sqrt()).abs() < 1e-12);
        assert!((g.singleton_weight(r3) - 0.2f64.sqrt()).abs() < 1e-12);
        assert!((g.singleton_weight(r1) - 1.0).abs() < 1e-12);
        assert!(g.edge_between(r2, r1).is_some());
        assert!(g.edge_between(r1, r3).is_none());
    }

    #[test]
    #[should_panic(expected = "at least two members")]
    fn singleton_ref_set_rejected() {
        let table = LabelTable::from_names(["a"]);
        let mut g = RefGraph::new(table);
        let r0 = g.add_ref(LabelDist::delta(Label(0), 1));
        g.add_ref_set(vec![r0, r0], 0.5);
    }

    #[test]
    fn a_copy_with_room_takes_its_batch_in_place() {
        let table = LabelTable::from_names(["a", "b"]);
        let mut g = RefGraph::new(table);
        for _ in 0..4 {
            g.add_ref(LabelDist::delta(Label(0), 2));
        }
        g.add_edge(RefId(0), RefId(1), EdgeProbability::Independent(0.3));
        g.add_ref_set(vec![RefId(1), RefId(2)], 0.5);
        let mut copy = g.clone_with_room(2);
        assert_eq!(format!("{copy:?}"), format!("{g:?}"));
        let (edges, labels) = (copy.edges().as_ptr(), copy.ref_labels.as_ptr());
        copy.add_edge(RefId(2), RefId(3), EdgeProbability::Independent(0.6));
        copy.add_ref(LabelDist::delta(Label(1), 2));
        assert_eq!((copy.edges().as_ptr(), copy.ref_labels.as_ptr()), (edges, labels));
        assert_eq!(copy.reference(RefId(4)).labels.prob(Label(1)), 1.0);
        assert_eq!(g.n_edges(), 1);
    }

    #[test]
    fn edge_replacement() {
        let table = LabelTable::from_names(["a"]);
        let mut g = RefGraph::new(table);
        let r0 = g.add_ref(LabelDist::delta(Label(0), 1));
        let r1 = g.add_ref(LabelDist::delta(Label(0), 1));
        g.add_edge(r0, r1, EdgeProbability::Independent(0.3));
        g.add_edge(r1, r0, EdgeProbability::Independent(0.8));
        assert_eq!(g.n_edges(), 1);
        assert_eq!(g.edge_between(r0, r1).unwrap().prob.max_prob(), 0.8);
    }
}
