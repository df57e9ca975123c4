//! Compiling a reference-level network into a probabilistic entity graph.

use crate::error::PegError;
use crate::merge;
use crate::model::existence::{ExistenceModel, ExistenceOptions};
use graphstore::dist::{CondTable, EdgeProbability, LabelDist, LabelRow};
use graphstore::{
    sorted_disjoint, EntityEdge, EntityGraph, EntityId, EntityNodes, EntityRef, RefGraph, RefId,
};
use std::borrow::Cow;
use std::time::{Duration, Instant};

/// The probabilistic entity graph: the entity-level graph `G_U` plus the
/// exact identity-uncertainty semantics.
#[derive(Clone, Debug)]
pub struct Peg {
    /// Entity graph with merged label/edge distributions.
    pub graph: EntityGraph,
    /// Node-existence components and marginals.
    pub existence: ExistenceModel,
}

impl Peg {
    /// `Prn(M)`: probability that all `nodes` co-exist (Equation 12).
    pub fn prn(&self, nodes: &[EntityId]) -> f64 {
        self.existence.prn(nodes)
    }
}

/// Builder for [`Peg`]: labels and edges merge by average
/// ([`merge`]), the paper's evaluation setting.
#[derive(Default)]
pub struct PegBuilder {
    existence: ExistenceOptions,
}

impl PegBuilder {
    /// Average merges and default existence budgets.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the existence-component enumeration budgets.
    pub fn with_existence_options(mut self, opts: ExistenceOptions) -> Self {
        self.existence = opts;
        self
    }

    /// Compiles `refs` into a PEG.
    ///
    /// Entity nodes are created for every singleton reference set (implicit)
    /// and every declared set, in creation order ([`RefGraph::entities`] —
    /// for a refs-first construction this is "singletons first, then
    /// declared sets"). An entity edge is created between two entities
    /// exactly when some underlying reference pair has a declared edge and
    /// the entities share no reference; its probability merges **all**
    /// cross pairs (absent pairs count as probability 0, per Definition 2).
    ///
    /// Tombstoned entities (deleted references/sets) keep their node ids —
    /// live mutation depends on id stability — but exist in no possible
    /// world: `Prn` of any match including one is 0.
    pub fn build(&self, refs: &RefGraph) -> Result<Peg, PegError> {
        let c = self.compile(refs)?;
        let node_refs: Vec<&[RefId]> = c.graph.nodes().iter().map(|n| n.refs).collect();
        let (weights, dead): (Vec<f64>, Vec<bool>) =
            (0..refs.n_entities()).map(|i| (refs.entity_weight(i), refs.entity_is_dead(i))).unzip();
        let existence =
            ExistenceModel::build_with_dead(&node_refs, &weights, &dead, &self.existence)?;
        Ok(Peg { graph: c.graph, existence })
    }

    /// Recompiles a *mutated* `refs` against the previous compilation:
    /// the entity graph is patched at the touched entities, and untouched
    /// existence-component tables are reused by `Arc`
    /// ([`ExistenceModel::rebuild_incremental`]). The result is
    /// **bit-identical** to [`PegBuilder::build`] of the same mutated
    /// network (up to the numbering of existence components); on top of
    /// it, `dirty` marks every node whose compiled semantics may differ
    /// from `prev` — the seed set incremental path-index maintenance
    /// re-enumerates around.
    ///
    /// `touched` is the directly-touched entity set an op batch reported
    /// ([`RefGraph::apply_all`]): every entity whose member references,
    /// their labels, their incident reference edges, its liveness or its
    /// weight an op changed, sorted. Only those entities, the entities
    /// appended since `prev`, and the pairs incident to them are merged
    /// again; every other node and edge is `prev`'s, copied in order — an
    /// entity's members are fixed at creation, and a pair with no touched
    /// endpoint has the same reference edges as before.
    pub fn rebuild(
        &self,
        refs: &RefGraph,
        prev: &Peg,
        touched: &[u32],
    ) -> Result<PegDelta, PegError> {
        let t = Instant::now();
        let c = self.patch(refs, &prev.graph, touched);
        self.delta(c, prev, touched, t.elapsed())
    }

    /// The existence half of [`PegBuilder::rebuild`], over an entity graph
    /// compiled in `compile_time`.
    fn delta(
        &self,
        c: CompiledGraph<'_>,
        prev: &Peg,
        touched: &[u32],
        compile_time: Duration,
    ) -> Result<PegDelta, PegError> {
        let t = Instant::now();
        let delta =
            ExistenceModel::rebuild_incremental(c.refs, &self.existence, &prev.existence, touched)?;
        let mut dirty = delta.changed;
        for &t in touched {
            if let Some(d) = dirty.get_mut(t as usize) {
                *d = true;
            }
        }
        Ok(PegDelta {
            peg: Peg { graph: c.graph, existence: delta.model },
            dirty,
            reused_components: delta.reused_components,
            compile_time,
            existence_time: t.elapsed(),
        })
    }

    /// The whole-network compile: node table (creation order), merged
    /// labels, merged edges — everything but the existence model. The
    /// load path, and the oracle [`PegBuilder::patch`] is tested against.
    fn compile<'r>(&self, refs: &'r RefGraph) -> Result<CompiledGraph<'r>, PegError> {
        if refs.label_table().is_empty() {
            return Err(PegError::Invalid("empty label alphabet".into()));
        }
        let mut nodes = EntityNodes::new(refs.label_table().len());
        for i in 0..refs.n_entities() {
            nodes.push(&self.labels(refs, i), refs.entity_refs(i));
        }
        let edges = self.edges(refs, &nodes, None);
        let graph = EntityGraph::from_sorted_edges(refs.label_table().clone(), nodes, edges);
        Ok(CompiledGraph { graph, refs })
    }

    /// [`PegBuilder::compile`] of the mutated `refs`, done as a patch of
    /// `prev`: the node columns are copied, the touched entities' label
    /// rows merged again and the appended entities pushed (an entity's
    /// references never change); every pair incident to one of them is
    /// merged again, and every other edge is copied from `prev` in order.
    fn patch<'r>(
        &self,
        refs: &'r RefGraph,
        prev: &EntityGraph,
        touched: &[u32],
    ) -> CompiledGraph<'r> {
        let n = refs.n_entities();
        let prev_n = prev.n_nodes().min(n);
        let mut redo = vec![false; n];
        redo[prev_n..].fill(true);
        let mut nodes = prev.nodes().clone();
        for &t in touched {
            if (t as usize) < prev_n {
                redo[t as usize] = true;
                nodes.set_labels(t as usize, &self.labels(refs, t as usize));
            }
        }
        for i in prev_n..n {
            nodes.push(&self.labels(refs, i), refs.entity_refs(i));
        }
        let fresh = self.edges(refs, &nodes, Some(&redo));
        // Both lists are in `(a, b)` order: merge them.
        let mut kept =
            prev.edges().iter().filter(|e| !redo[e.a.idx()] && !redo[e.b.idx()]).peekable();
        let mut edges = Vec::with_capacity(prev.n_edges() + fresh.len());
        for f in fresh {
            while let Some(e) = kept.next_if(|e| (e.a, e.b) < (f.a, f.b)) {
                edges.push(e.clone());
            }
            edges.push(f);
        }
        edges.extend(kept.cloned());
        let graph = EntityGraph::from_sorted_edges(refs.label_table().clone(), nodes, edges);
        CompiledGraph { graph, refs }
    }

    /// The merged label row of entity `i` of the creation log: a
    /// singleton's is its reference's row, borrowed.
    fn labels<'r>(&self, refs: &'r RefGraph, i: usize) -> Cow<'r, [f64]> {
        match refs.entities()[i] {
            EntityRef::Singleton(r) => Cow::Borrowed(refs.reference(r).labels.as_slice()),
            EntityRef::Set(s) => {
                let rows: Vec<LabelRow<'_>> =
                    refs.ref_set(s).members.iter().map(|&r| refs.reference(r).labels).collect();
                Cow::Owned(LabelDist::average(&rows).as_slice().to_vec())
            }
        }
    }

    /// The merged entity edges in `(a, b)` order: over every pair of
    /// entities joined by a reference edge, or — given `redo` flags per
    /// entity — over only the pairs with a flagged endpoint.
    fn edges(
        &self,
        refs: &RefGraph,
        nodes: &EntityNodes,
        redo: Option<&[bool]>,
    ) -> Vec<EntityEdge> {
        // Which references a flagged entity holds: a reference edge with
        // neither endpoint among them joins no flagged pair.
        let held = redo.map(|redo| {
            let mut held = vec![false; refs.n_refs()];
            for (node, _) in nodes.iter().zip(redo).filter(|(_, r)| **r) {
                for r in node.refs {
                    held[r.idx()] = true;
                }
            }
            held
        });
        // Entities containing a reference, live or dead — dead entities
        // compile like live ones.
        let containing = |r: RefId| {
            std::iter::once(refs.singleton_entity(r)).chain(refs.sets_containing(r).iter().copied())
        };
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for e in refs.edges() {
            if held.as_ref().is_some_and(|h| !h[e.a.idx()] && !h[e.b.idx()]) {
                continue;
            }
            for s1 in containing(e.a) {
                for s2 in containing(e.b) {
                    let wanted = redo.is_none_or(|r| r[s1 as usize] || r[s2 as usize]);
                    // Entities sharing a reference never co-exist: no edge.
                    if s1 != s2
                        && wanted
                        && sorted_disjoint(nodes.refs(s1 as usize), nodes.refs(s2 as usize))
                    {
                        pairs.push((s1.min(s2), s1.max(s2)));
                    }
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();

        // Merged edge probabilities over all cross pairs. Edge CPTs are
        // oriented: rows = label of the *stored first* endpoint. Every
        // underlying pair probability is oriented to (s1, s2) order before
        // merging.
        let n_labels = refs.label_table().len();
        let mut probs: Vec<EdgeProbability> = Vec::new();
        let mut edges = Vec::with_capacity(pairs.len());
        for (s1, s2) in pairs {
            probs.clear();
            for &ra in nodes.refs(s1 as usize) {
                for &rb in nodes.refs(s2 as usize) {
                    probs.push(match refs.edge_between(ra, rb) {
                        None => EdgeProbability::Independent(0.0),
                        Some(e) if e.a == ra => e.prob.clone(),
                        Some(e) => transpose(&e.prob, n_labels),
                    });
                }
            }
            let merged = if probs.len() == 1 {
                probs.pop().expect("one pair")
            } else {
                merge::average_edges(&probs, n_labels)
            };
            if merged.is_possible() {
                edges.push(EntityEdge { a: EntityId(s1), b: EntityId(s2), prob: merged });
            }
        }
        edges
    }
}

/// Result of [`PegBuilder::rebuild`]: the recompiled graph plus the dirty
/// node set incremental index maintenance works from.
#[derive(Clone, Debug)]
pub struct PegDelta {
    /// The recompiled PEG — bit-identical to a from-scratch build, up to
    /// the numbering of existence components.
    pub peg: Peg,
    /// Per-node flag: compiled semantics may differ from the previous PEG.
    pub dirty: Vec<bool>,
    /// Existence components carried over from the previous model by `Arc`.
    pub reused_components: usize,
    /// Wall time of patching the entity graph: merging the touched
    /// entities' label rows and the pairs incident to them (∝ what the
    /// batch touched), plus copying the node columns and every other edge,
    /// one scan of the reference edges for the touched ones, and the CSR
    /// and edge map rebuilt from the merged edge list (∝ n, at copy
    /// speed).
    pub compile_time: Duration,
    /// Wall time of the by-component existence rebuild and dirty marking:
    /// ∝ the components the batch reaches, plus copying the per-node
    /// component and position columns.
    pub existence_time: Duration,
}

/// An entity graph with the network it was compiled from: the existence
/// model's other input.
struct CompiledGraph<'r> {
    graph: EntityGraph,
    refs: &'r RefGraph,
}

/// Transposes a (possibly conditional) edge probability: swaps which
/// endpoint the CPT rows refer to.
fn transpose(p: &EdgeProbability, n_labels: usize) -> EdgeProbability {
    match p {
        EdgeProbability::Independent(q) => EdgeProbability::Independent(*q),
        EdgeProbability::Conditional(t) => {
            EdgeProbability::Conditional(CondTable::from_fn(n_labels, |a, b| t.prob(b, a)))
        }
    }
}

/// Builds the Figure-1 reference network of the paper; shared by tests,
/// examples and documentation.
pub fn figure1_refgraph() -> RefGraph {
    use graphstore::LabelTable;
    let mut table = LabelTable::new();
    let a = table.intern("a");
    let r = table.intern("r");
    let i = table.intern("i");
    let n = table.len();
    let mut g = RefGraph::new(table);
    let r1 = g.add_ref(LabelDist::from_pairs(&[(r, 0.25), (i, 0.75)], n));
    let r2 = g.add_ref(LabelDist::delta(a, n));
    let r3 = g.add_ref(LabelDist::delta(r, n));
    let r4 = g.add_ref(LabelDist::delta(i, n));
    g.add_edge(r1, r2, EdgeProbability::Independent(0.9));
    g.add_edge(r2, r3, EdgeProbability::Independent(1.0));
    g.add_edge(r2, r4, EdgeProbability::Independent(0.5));
    g.add_pair_set_with_posterior(r3, r4, 0.8);
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphstore::{GraphOp, Label, RefSet, RefSetId};

    #[test]
    fn figure1_peg_structure() {
        let refs = figure1_refgraph();
        let peg = PegBuilder::new().build(&refs).unwrap();
        // 4 singletons + 1 pair set.
        assert_eq!(peg.graph.n_nodes(), 5);
        let s1 = EntityId(0);
        let s2 = EntityId(1);
        let s3 = EntityId(2);
        let s4 = EntityId(3);
        let s34 = EntityId(4);

        // Merged label distribution of s34: r(0.5), i(0.5).
        assert!((peg.graph.label_prob(s34, Label(1)) - 0.5).abs() < 1e-12);
        assert!((peg.graph.label_prob(s34, Label(2)) - 0.5).abs() < 1e-12);

        // Edges: s1-s2 (0.9), s2-s3 (1.0), s2-s4 (0.5), s2-s34 (0.75).
        assert_eq!(peg.graph.n_edges(), 4);
        assert!((peg.graph.edge_prob_max(s1, s2) - 0.9).abs() < 1e-12);
        assert!((peg.graph.edge_prob_max(s2, s3) - 1.0).abs() < 1e-12);
        assert!((peg.graph.edge_prob_max(s2, s4) - 0.5).abs() < 1e-12);
        assert!((peg.graph.edge_prob_max(s2, s34) - 0.75).abs() < 1e-12);
        // No s3-s34 edge (they share reference r3).
        assert!(peg.graph.edge_between(s3, s34).is_none());

        // Identity marginals.
        assert!((peg.prn(&[s34]) - 0.8).abs() < 1e-12);
        assert!((peg.prn(&[s3, s4]) - 0.2).abs() < 1e-12);
        assert_eq!(peg.prn(&[s4, s34]), 0.0);
    }

    #[test]
    fn conditional_edges_merge_and_orient() {
        use graphstore::LabelTable;
        let mut table = LabelTable::new();
        let x = table.intern("x");
        let y = table.intern("y");
        let n = table.len();
        let mut g = RefGraph::new(table);
        let r0 = g.add_ref(LabelDist::delta(x, n));
        let r1 = g.add_ref(LabelDist::delta(y, n));
        let r2 = g.add_ref(LabelDist::delta(y, n));
        // Asymmetric CPT declared r0 -> r1.
        let mut cpt = CondTable::zeros(n);
        cpt.set(x, y, 0.8);
        cpt.set(y, x, 0.2);
        g.add_edge(r0, r1, EdgeProbability::Conditional(cpt));
        g.add_edge(r0, r2, EdgeProbability::Independent(0.4));
        g.add_pair_set_with_posterior(r1, r2, 0.5);
        let peg = PegBuilder::new().build(&g).unwrap();

        // Merged edge s0–s12 averages the (oriented) CPT with the constant
        // 0.4 table: entry (x, y) = (0.8 + 0.4)/2 = 0.6.
        let s0 = EntityId(0);
        let s12 = EntityId(3);
        assert!((peg.graph.edge_prob(s0, s12, x, y) - 0.6).abs() < 1e-12);
        // Same world queried from the other side: s12 labeled y, s0 labeled
        // x — the CPT orientation must flip.
        assert!((peg.graph.edge_prob(s12, s0, y, x) - 0.6).abs() < 1e-12);
        // Entry (y, x) = (0.2 + 0.4)/2 = 0.3.
        assert!((peg.graph.edge_prob(s0, s12, y, x) - 0.3).abs() < 1e-12);
        assert!((peg.graph.edge_prob(s12, s0, x, y) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn zero_probability_edges_dropped() {
        use graphstore::LabelTable;
        let table = LabelTable::from_names(["x"]);
        let mut g = RefGraph::new(table);
        let r0 = g.add_ref(LabelDist::delta(Label(0), 1));
        let r1 = g.add_ref(LabelDist::delta(Label(0), 1));
        g.add_edge(r0, r1, EdgeProbability::Independent(0.0));
        let peg = PegBuilder::new().build(&g).unwrap();
        assert_eq!(peg.graph.n_edges(), 0);
    }

    /// SplitMix64, so a failing case reproduces from its seed alone.
    struct Mix(u64);

    impl Mix {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        fn prob(&mut self) -> f64 {
            0.05 + 0.9 * self.below(1000) as f64 / 1000.0
        }
    }

    /// A random network of 10–17 references over three labels: uncertain
    /// and point labels, independent and conditional (CPT) edges, and a
    /// few declared sets.
    fn random_network(rng: &mut Mix) -> RefGraph {
        use graphstore::LabelTable;
        let mut g = RefGraph::new(LabelTable::from_names(["x", "y", "z"]));
        let n = 10 + rng.below(8);
        for _ in 0..n {
            let (a, b) = (Label(rng.below(3) as u16), Label(rng.below(3) as u16));
            let q = rng.prob();
            g.add_ref(LabelDist::from_pairs(&[(a, q), (b, 1.0 - q)], 3));
        }
        for _ in 0..2 * n {
            let (a, b) = (RefId(rng.below(n) as u32), RefId(rng.below(n) as u32));
            if a == b {
                continue;
            }
            let p = if rng.below(3) == 0 {
                let mut cpt = CondTable::zeros(3);
                for (x, y) in [(0, 1), (1, 0), (1, 2), (2, 2)] {
                    cpt.set(Label(x), Label(y), rng.prob());
                }
                EdgeProbability::Conditional(cpt)
            } else {
                EdgeProbability::Independent(rng.prob())
            };
            g.add_edge(a, b, p);
        }
        for _ in 0..2 {
            let (a, b) = (RefId(rng.below(n) as u32), RefId(rng.below(n) as u32));
            if a != b {
                g.add_pair_set_with_posterior(a, b, rng.prob());
            }
        }
        g
    }

    /// An op of any of the eight kinds against `g`'s live references; an
    /// invalid one fails its batch, which is then skipped.
    fn random_op(g: &RefGraph, rng: &mut Mix) -> GraphOp {
        let alive: Vec<RefId> = g.ref_ids().filter(|&r| g.ref_is_alive(r)).collect();
        let mut pick = || alive[rng.below(alive.len())];
        let (a, b, c) = (pick(), pick(), pick());
        let label = |rng: &mut Mix| vec![(rng.below(3) as u16, rng.prob())];
        match rng.below(8) {
            0 => GraphOp::UpsertRef { r: None, labels: label(rng) },
            1 => GraphOp::UpsertRef { r: Some(a), labels: label(rng) },
            2 => GraphOp::DeleteRef { r: a },
            3 => GraphOp::UpsertEdge { a, b, p: rng.prob() },
            4 => match g.edges().get(rng.below(g.n_edges().max(1))) {
                Some(e) => GraphOp::DeleteEdge { a: e.a, b: e.b },
                None => GraphOp::DeleteEdge { a, b },
            },
            5 => GraphOp::UpsertSet { members: vec![a, b, c], weight: rng.prob() },
            6 => {
                let live: Vec<&RefSet> = (0..g.ref_sets().len() as u32)
                    .filter(|&s| g.set_is_alive(RefSetId(s)))
                    .map(|s| g.ref_set(RefSetId(s)))
                    .collect();
                match live.get(rng.below(live.len().max(1))) {
                    Some(set) => GraphOp::DeleteSet { members: set.members.clone() },
                    None => GraphOp::SetSingletonWeight { r: a, weight: rng.prob() },
                }
            }
            _ => GraphOp::PairPosterior { a, b, q: rng.prob() },
        }
    }

    /// Every field a compile produces, `got` against `want`.
    fn assert_same_graph(got: &EntityGraph, want: &EntityGraph) {
        let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        let prob_bits = |p: &EdgeProbability| match p {
            EdgeProbability::Independent(q) => vec![q.to_bits()],
            EdgeProbability::Conditional(t) => bits(t.as_slice()),
        };
        assert_eq!(got.n_nodes(), want.n_nodes());
        for (x, y) in got.nodes().iter().zip(want.nodes()) {
            assert_eq!(x.refs, y.refs);
            assert_eq!(bits(x.labels.as_slice()), bits(y.labels.as_slice()));
        }
        assert_eq!(got.n_edges(), want.n_edges());
        for (x, y) in got.edges().iter().zip(want.edges()) {
            assert_eq!((x.a, x.b), (y.a, y.b), "edge order");
            assert_eq!(prob_bits(&x.prob), prob_bits(&y.prob));
        }
        for u in want.node_ids() {
            assert_eq!(got.neighbors(u), want.neighbors(u), "row of {u:?}");
            let row = |g: &EntityGraph| {
                g.neighbor_edges(u).map(|(v, e)| (v, e.a, e.b)).collect::<Vec<_>>()
            };
            assert_eq!(row(got), row(want));
            for v in want.node_ids() {
                let ends = |g: &EntityGraph| g.edge_between(u, v).map(|e| (e.a, e.b));
                assert_eq!(ends(got), ends(want), "edge_between({u:?}, {v:?})");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 48,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// Chained batches of all eight op kinds: after each, the patched
        /// graph equals a fresh compile of the mutated network field by
        /// field, and `dirty` / `reused_components` equal what the
        /// whole-network compile reports against the same previous PEG.
        #[test]
        fn patched_graph_equals_a_fresh_compile(seed in proptest::prelude::any::<u64>()) {
            let mut rng = Mix(seed);
            let builder = PegBuilder::new();
            let mut refs = random_network(&mut rng);
            let Ok(mut peg) = builder.build(&refs) else { return Ok(()) };
            for _ in 0..6 {
                let mut next = refs.clone();
                let n_ops = 1 + rng.below(4);
                let ops: Vec<GraphOp> = (0..n_ops).map(|_| random_op(&refs, &mut rng)).collect();
                let Ok(touched) = next.apply_all(&ops) else { continue };
                let patched = builder.rebuild(&next, &peg, &touched);
                let oracle = builder
                    .compile(&next)
                    .and_then(|c| builder.delta(c, &peg, &touched, Duration::ZERO));
                let (patched, oracle) = match (patched, oracle) {
                    (Ok(p), Ok(o)) => (p, o),
                    (Err(_), Err(_)) => continue,
                    (p, o) => panic!("{ops:?}: patched ok {} / compiled ok {}", p.is_ok(), o.is_ok()),
                };
                assert_same_graph(&patched.peg.graph, &oracle.peg.graph);
                assert_same_graph(&patched.peg.graph, &builder.build(&next).unwrap().graph);
                proptest::prop_assert_eq!(&patched.dirty, &oracle.dirty);
                proptest::prop_assert_eq!(patched.reused_components, oracle.reused_components);
                (refs, peg) = (next, patched.peg);
            }
        }
    }

    #[test]
    fn empty_alphabet_rejected() {
        use graphstore::LabelTable;
        let g = RefGraph::new(LabelTable::new());
        assert!(matches!(PegBuilder::new().build(&g), Err(PegError::Invalid(_))));
    }
}
