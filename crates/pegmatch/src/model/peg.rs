//! Compiling a reference-level network into a probabilistic entity graph.

use crate::error::PegError;
use crate::merge::{AverageMerge, EdgeMerge, LabelMerge};
use crate::model::existence::{ExistenceModel, ExistenceOptions};
use graphstore::dist::{CondTable, EdgeProbability, LabelDist};
use graphstore::hash::FxHashSet;
use graphstore::{EntityGraph, EntityGraphBuilder, EntityId, EntityRef, RefGraph, RefId};
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

/// Builder for [`Peg`], parameterized by the PGD merge functions.
pub struct PegBuilder {
    label_merge: Box<dyn LabelMerge>,
    edge_merge: Box<dyn EdgeMerge>,
    existence: ExistenceOptions,
}

impl Default for PegBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl PegBuilder {
    /// Average merges (the paper's evaluation setting) and default existence
    /// budgets.
    pub fn new() -> Self {
        Self {
            label_merge: Box::new(AverageMerge),
            edge_merge: Box::new(AverageMerge),
            existence: ExistenceOptions::default(),
        }
    }

    /// Replaces the node-label merge function `mΣ`.
    pub fn with_label_merge(mut self, m: impl LabelMerge + 'static) -> Self {
        self.label_merge = Box::new(m);
        self
    }

    /// Replaces the edge-existence merge function `m{T,F}`.
    pub fn with_edge_merge(mut self, m: impl EdgeMerge + 'static) -> Self {
        self.edge_merge = Box::new(m);
        self
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
        let existence = ExistenceModel::build_with_dead(
            &c.node_refs,
            &c.node_weights,
            &c.dead,
            &self.existence,
        )?;
        Ok(Peg { graph: c.graph, existence })
    }

    /// Recompiles a *mutated* `refs` against the previous compilation,
    /// reusing untouched existence-component tables by `Arc`
    /// ([`ExistenceModel::rebuild_incremental`]). The result is
    /// **bit-identical** to [`PegBuilder::build`] of the same mutated
    /// network; on top of it, `dirty` marks every node whose compiled
    /// semantics may differ from `prev` — the seed set incremental
    /// path-index maintenance re-enumerates around.
    ///
    /// `touched` is the directly-touched entity set an op batch reported
    /// ([`RefGraph::apply_all`]).
    pub fn rebuild(
        &self,
        refs: &RefGraph,
        prev: &Peg,
        touched: &[u32],
    ) -> Result<PegDelta, PegError> {
        let t = Instant::now();
        let c = self.compile(refs)?;
        let compile_time = t.elapsed();
        let t = Instant::now();
        let mut touched_flags = vec![false; c.node_refs.len()];
        for &t in touched {
            if (t as usize) < touched_flags.len() {
                touched_flags[t as usize] = true;
            }
        }
        let delta = ExistenceModel::rebuild_incremental(
            &c.node_refs,
            &c.node_weights,
            &c.dead,
            &self.existence,
            &prev.existence,
            &touched_flags,
        )?;
        let mut dirty = delta.changed;
        for (i, t) in touched_flags.iter().enumerate() {
            dirty[i] |= *t;
        }
        Ok(PegDelta {
            peg: Peg { graph: c.graph, existence: delta.model },
            dirty,
            reused_components: delta.reused_components,
            compile_time,
            existence_time: t.elapsed(),
        })
    }

    /// Shared compilation core: node table (creation order), merged
    /// labels, merged edges — everything but the existence model.
    fn compile(&self, refs: &RefGraph) -> Result<CompiledGraph, PegError> {
        let n_refs = refs.n_refs();
        let n_labels = refs.label_table().len();
        if n_labels == 0 {
            return Err(PegError::Invalid("empty label alphabet".into()));
        }

        // --- Entity node table, in creation-log order. ---
        let n_entities = refs.n_entities();
        let mut node_refs: Vec<Vec<RefId>> = Vec::with_capacity(n_entities);
        let mut node_weights: Vec<f64> = Vec::with_capacity(n_entities);
        let mut dead: Vec<bool> = Vec::with_capacity(n_entities);
        for (i, ent) in refs.entities().iter().enumerate() {
            match *ent {
                EntityRef::Singleton(r) => {
                    node_refs.push(vec![r]);
                    node_weights.push(refs.singleton_weight(r));
                }
                EntityRef::Set(s) => {
                    let set = refs.ref_set(s);
                    node_refs.push(set.members.clone());
                    node_weights.push(set.weight);
                }
            }
            dead.push(refs.entity_is_dead(i));
        }

        // Sets containing each reference (live or dead — dead entities
        // compile identically on the build and rebuild paths).
        let mut containing: Vec<Vec<u32>> = vec![Vec::new(); n_refs];
        for (i, members) in node_refs.iter().enumerate() {
            for r in members {
                containing[r.idx()].push(i as u32);
            }
        }

        // --- Merged node labels. ---
        let mut builder = EntityGraphBuilder::new(refs.label_table().clone());
        for members in &node_refs {
            let dists: Vec<&LabelDist> =
                members.iter().map(|r| &refs.reference(*r).labels).collect();
            let merged =
                if dists.len() == 1 { dists[0].clone() } else { self.label_merge.merge(&dists) };
            builder.add_node(merged, members.clone());
        }

        // --- Candidate entity pairs from reference edges. ---
        let mut pairs: FxHashSet<(u32, u32)> = FxHashSet::default();
        for e in refs.edges() {
            for &s1 in &containing[e.a.idx()] {
                for &s2 in &containing[e.b.idx()] {
                    if s1 == s2 {
                        continue;
                    }
                    if !disjoint(&node_refs[s1 as usize], &node_refs[s2 as usize]) {
                        continue; // Can never co-exist; edge is meaningless.
                    }
                    pairs.insert((s1.min(s2), s1.max(s2)));
                }
            }
        }
        let mut pairs: Vec<(u32, u32)> = pairs.into_iter().collect();
        pairs.sort_unstable();

        // --- Merged edge probabilities over all cross pairs. ---
        // Edge CPTs are oriented: rows = label of the *stored first*
        // endpoint. We orient every underlying pair probability to (s1, s2)
        // order before merging.
        let mut probs: Vec<EdgeProbability> = Vec::new();
        for &(s1, s2) in &pairs {
            probs.clear();
            for &ra in &node_refs[s1 as usize] {
                for &rb in &node_refs[s2 as usize] {
                    match refs.edge_between(ra, rb) {
                        None => probs.push(EdgeProbability::Independent(0.0)),
                        Some(e) => {
                            let oriented = if e.a == ra {
                                e.prob.clone()
                            } else {
                                transpose(&e.prob, n_labels)
                            };
                            probs.push(oriented);
                        }
                    }
                }
            }
            let merged = if probs.len() == 1 {
                probs[0].clone()
            } else {
                self.edge_merge.merge(&probs, n_labels)
            };
            if merged.is_possible() {
                builder.add_edge(EntityId(s1), EntityId(s2), merged);
            }
        }

        Ok(CompiledGraph { graph: builder.build(), node_refs, node_weights, dead })
    }
}

/// Result of [`PegBuilder::rebuild`]: the recompiled graph plus the dirty
/// node set incremental index maintenance works from.
#[derive(Clone, Debug)]
pub struct PegDelta {
    /// The recompiled PEG — bit-identical to a from-scratch build.
    pub peg: Peg,
    /// Per-node flag: compiled semantics may differ from the previous PEG.
    pub dirty: Vec<bool>,
    /// Existence components carried over from the previous model by `Arc`.
    pub reused_components: usize,
    /// Wall time of the entity-graph compile (whole network, ∝ n).
    pub compile_time: Duration,
    /// Wall time of the incremental existence rebuild and dirty marking.
    pub existence_time: Duration,
}

/// Everything [`PegBuilder::compile`] produces short of the existence model.
struct CompiledGraph {
    graph: EntityGraph,
    node_refs: Vec<Vec<RefId>>,
    node_weights: Vec<f64>,
    dead: Vec<bool>,
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

fn disjoint(a: &[RefId], b: &[RefId]) -> bool {
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
    use graphstore::Label;

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

    #[test]
    fn empty_alphabet_rejected() {
        use graphstore::LabelTable;
        let g = RefGraph::new(LabelTable::new());
        assert!(matches!(PegBuilder::new().build(&g), Err(PegError::Invalid(_))));
    }
}
