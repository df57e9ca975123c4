//! Context information on nodes (Section 5.1): `c(v,σ)`, `ppu(v,σ)`,
//! `fpu(v,σ)`.
//!
//! For a node `v` and label `σ`, `N(v,σ)` is the set of neighbors of `v`
//! that have `σ` in their label set and share no reference with `v`. The
//! three statistics summarize `v`'s neighborhood for pruning:
//!
//! * `c(v,σ) = |N(v,σ)|` — cardinality,
//! * `ppu(v,σ) = max Pr(edge)` over `N(v,σ)` — partial probability upper
//!   bound (edge only),
//! * `fpu(v,σ) = max Pr(v'.l=σ)·Pr(edge)` — full probability upper bound
//!   (edge and neighbor label).
//!
//! With label-conditional edges (Section 5.3) the edge probability used is
//! the maximum over the unknown endpoint label, preserving the upper-bound
//! property at some loss of tightness.

use graphstore::{EntityGraph, EntityId, Label};

/// Dense per-(node, label) context statistics.
#[derive(Clone, Debug)]
pub struct ContextInfo {
    n_labels: usize,
    c: Vec<u32>,
    ppu: Vec<f64>,
    fpu: Vec<f64>,
}

impl ContextInfo {
    /// Computes context information for every node and label.
    pub fn build(graph: &EntityGraph) -> Self {
        let n_labels = graph.label_table().len();
        let mut ctx = Self { n_labels, c: Vec::new(), ppu: Vec::new(), fpu: Vec::new() };
        ctx.resize(graph.n_nodes());
        for v in graph.node_ids() {
            ctx.fill_row(graph, v);
        }
        ctx
    }

    /// Context information for `graph`, a mutation of the graph `self` was
    /// computed for (same alphabet, stable node ids, new nodes appended):
    /// the tables are copied and only the rows of `dirty` nodes and of
    /// their neighbours in `graph` are recomputed. Equal, bit for bit, to
    /// [`ContextInfo::build`] on `graph` as long as `dirty` flags every
    /// node whose labels or incident edges changed — a row reads nothing
    /// but its node's edges and its neighbours' labels and references, and
    /// a node that lost an edge is an endpoint of it, so dirty itself.
    /// Nodes past the end of `dirty` count as dirty.
    pub fn patched(&self, graph: &EntityGraph, dirty: &[bool]) -> Self {
        debug_assert_eq!(self.n_labels, graph.label_table().len());
        let mut ctx = self.clone();
        ctx.resize(graph.n_nodes());
        let mut stale = vec![false; graph.n_nodes()];
        for v in graph.node_ids() {
            if dirty.get(v.idx()).copied().unwrap_or(true) {
                stale[v.idx()] = true;
                for &nb in graph.neighbors(v) {
                    stale[nb as usize] = true;
                }
            }
        }
        for v in graph.node_ids().filter(|v| stale[v.idx()]) {
            ctx.fill_row(graph, v);
        }
        ctx
    }

    fn resize(&mut self, n_nodes: usize) {
        let len = n_nodes * self.n_labels;
        self.c.resize(len, 0);
        self.ppu.resize(len, 0.0);
        self.fpu.resize(len, 0.0);
    }

    /// Recomputes the statistics of `v` from scratch.
    fn fill_row(&mut self, graph: &EntityGraph, v: EntityId) {
        let base = v.idx() * self.n_labels;
        let row = base..base + self.n_labels;
        self.c[row.clone()].fill(0);
        self.ppu[row.clone()].fill(0.0);
        self.fpu[row].fill(0.0);
        for (nb, edge) in graph.neighbor_edges(v) {
            if !graph.refs_disjoint(v, nb) {
                continue;
            }
            for sigma in graph.node(nb).labels.support() {
                let at = base + sigma.idx();
                // Edge probability upper bound with v's label unknown,
                // neighbor label = sigma (CPT orientation aware).
                let ep = if edge.a == v {
                    edge.prob.max_given(sigma, false)
                } else {
                    edge.prob.max_given(sigma, true)
                };
                let lp = graph.label_prob(nb, sigma);
                self.c[at] += 1;
                if ep > self.ppu[at] {
                    self.ppu[at] = ep;
                }
                let f = lp * ep;
                if f > self.fpu[at] {
                    self.fpu[at] = f;
                }
            }
        }
    }

    /// `c(v,σ)`: neighbors of `v` that can carry label `σ`.
    #[inline]
    pub fn c(&self, v: EntityId, sigma: Label) -> u32 {
        self.c[v.idx() * self.n_labels + sigma.idx()]
    }

    /// `ppu(v,σ)`: best edge probability into a `σ`-capable neighbor.
    #[inline]
    pub fn ppu(&self, v: EntityId, sigma: Label) -> f64 {
        self.ppu[v.idx() * self.n_labels + sigma.idx()]
    }

    /// `fpu(v,σ)`: best (label × edge) probability into a `σ` neighbor.
    #[inline]
    pub fn fpu(&self, v: EntityId, sigma: Label) -> f64 {
        self.fpu[v.idx() * self.n_labels + sigma.idx()]
    }

    /// Alphabet size the statistics are defined over.
    pub fn n_labels(&self) -> usize {
        self.n_labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphstore::dist::{CondTable, EdgeProbability, LabelDist};
    use graphstore::{EntityGraphBuilder, LabelTable, RefId};

    /// The Figure-3 example of the paper: v1 with neighbors carrying labels
    /// a/b at various probabilities.
    #[test]
    fn figure3_example() {
        let table = LabelTable::from_names(["a", "b"]);
        let n = table.len();
        let (a, b) = (Label(0), Label(1));
        let mut bld = EntityGraphBuilder::new(table);
        let v1 = bld.add_node(LabelDist::delta(a, n), vec![RefId(0)]);
        // Neighbors (label dist, edge prob) as in Figure 3:
        // a(0.9)/b(0.1) @ 0.2 ; a(0.8)/b(0.2) @ 0.9 ; a(1.0) @ 0.2 ;
        // a(1.0) @ 0.3 ; b(1.0) @ 1.0
        let specs: Vec<(Vec<(Label, f64)>, f64)> = vec![
            (vec![(a, 0.9), (b, 0.1)], 0.2),
            (vec![(a, 0.8), (b, 0.2)], 0.9),
            (vec![(a, 1.0)], 0.2),
            (vec![(a, 1.0)], 0.3),
            (vec![(b, 1.0)], 1.0),
        ];
        for (i, (dist, ep)) in specs.iter().enumerate() {
            let v = bld.add_node(LabelDist::from_pairs(dist, n), vec![RefId(1 + i as u32)]);
            bld.add_edge(v1, v, EdgeProbability::Independent(*ep));
        }
        let g = bld.build();
        let ctx = ContextInfo::build(&g);
        assert_eq!(ctx.c(v1, a), 4);
        assert_eq!(ctx.c(v1, b), 3);
        assert!((ctx.ppu(v1, a) - 0.9).abs() < 1e-12);
        assert!((ctx.ppu(v1, b) - 1.0).abs() < 1e-12);
        // fpu(v1, a): max of 0.9*0.2, 0.8*0.9, 1.0*0.2, 1.0*0.3 = 0.72.
        assert!((ctx.fpu(v1, a) - 0.72).abs() < 1e-12);
        assert!((ctx.fpu(v1, b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shared_reference_neighbors_excluded() {
        let table = LabelTable::from_names(["x"]);
        let mut bld = EntityGraphBuilder::new(table);
        let v0 = bld.add_node(LabelDist::delta(Label(0), 1), vec![RefId(0), RefId(1)]);
        let v1 = bld.add_node(LabelDist::delta(Label(0), 1), vec![RefId(1)]);
        let v2 = bld.add_node(LabelDist::delta(Label(0), 1), vec![RefId(2)]);
        bld.add_edge(v0, v2, EdgeProbability::Independent(0.5));
        // v0–v1 share RefId(1); even with an edge it must not count.
        bld.add_edge(v1, v2, EdgeProbability::Independent(0.7));
        let g = bld.build();
        let ctx = ContextInfo::build(&g);
        assert_eq!(ctx.c(v0, Label(0)), 1);
        assert!((ctx.ppu(v0, Label(0)) - 0.5).abs() < 1e-12);
        assert_eq!(ctx.c(v2, Label(0)), 2);
        assert!((ctx.ppu(v2, Label(0)) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn conditional_edges_use_max_over_unknown_label() {
        let table = LabelTable::from_names(["x", "y"]);
        let n = table.len();
        let mut bld = EntityGraphBuilder::new(table);
        let v0 = bld.add_node(
            LabelDist::from_pairs(&[(Label(0), 0.5), (Label(1), 0.5)], n),
            vec![RefId(0)],
        );
        let v1 = bld.add_node(LabelDist::delta(Label(1), n), vec![RefId(1)]);
        // CPT rows = v0's label: Pr(e | x, y) = 0.4, Pr(e | y, y) = 0.9.
        let mut cpt = CondTable::zeros(n);
        cpt.set(Label(0), Label(1), 0.4);
        cpt.set(Label(1), Label(1), 0.9);
        bld.add_edge(v0, v1, EdgeProbability::Conditional(cpt));
        let g = bld.build();
        let ctx = ContextInfo::build(&g);
        // From v0 toward a neighbor labeled y: v0's own label unknown, so
        // the bound maxes over rows: 0.9.
        assert!((ctx.ppu(v0, Label(1)) - 0.9).abs() < 1e-12);
        assert!((ctx.fpu(v0, Label(1)) - 0.9).abs() < 1e-12);
        // From v1 toward x-capable neighbors: v0 can be x with 0.5; edge
        // bound given neighbor label x (row) maxed over v1's label = 0.4.
        assert!((ctx.ppu(v1, Label(0)) - 0.4).abs() < 1e-12);
        assert!((ctx.fpu(v1, Label(0)) - 0.2).abs() < 1e-12);
    }

    /// Every table of `ctx`, floats as raw bits.
    fn bits(ctx: &ContextInfo) -> (Vec<u32>, Vec<u64>, Vec<u64>) {
        let raw = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect();
        (ctx.c.clone(), raw(&ctx.ppu), raw(&ctx.fpu))
    }

    mod patched {
        use super::*;
        use crate::model::PegBuilder;
        use datagen::{synthetic_refgraph, SyntheticConfig};
        use graphstore::{GraphOp, RefGraph};
        use proptest::prelude::*;

        /// One op from three draws, valid against `refs`: label and edge
        /// mutations, plus the ops that add and tombstone nodes.
        fn op(refs: &RefGraph, kind: u8, x: usize, y: usize, p: f64) -> Option<GraphOp> {
            let alive: Vec<RefId> =
                (0..refs.n_refs() as u32).map(RefId).filter(|&r| refs.ref_is_alive(r)).collect();
            let (a, b) = (alive[x % alive.len()], alive[y % alive.len()]);
            let label = (y % refs.label_table().len()) as u16;
            Some(match kind {
                0 => GraphOp::UpsertRef { r: None, labels: vec![(label, p)] },
                1 => GraphOp::UpsertRef { r: Some(a), labels: vec![(label, p)] },
                2 if a != b => GraphOp::UpsertEdge { a, b, p },
                3 if !refs.edges().is_empty() => {
                    let e = &refs.edges()[x % refs.edges().len()];
                    GraphOp::DeleteEdge { a: e.a, b: e.b }
                }
                4 if alive.len() > 8 => GraphOp::DeleteRef { r: a },
                5 if a != b => GraphOp::UpsertSet { members: vec![a, b], weight: p },
                _ => return None,
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Three chained batches: after each, the tables patched from
            /// the batch's dirty set equal a build over the mutated graph.
            #[test]
            fn patched_equals_build(
                seed in 0u64..1_000_000,
                n_refs in 30usize..70,
                draws in prop::collection::vec((0u8..6, 0usize..1000, 0usize..1000, 0.05f64..0.95), 3..=12),
            ) {
                let cfg = SyntheticConfig { seed, ..SyntheticConfig::paper_with_uncertainty(n_refs, 0.3) };
                let mut refs = synthetic_refgraph(&cfg);
                let builder = PegBuilder::new();
                let mut peg = builder.build(&refs).unwrap();
                let mut ctx = ContextInfo::build(&peg.graph);
                for batch in draws.chunks(draws.len().div_ceil(3)) {
                    let mut next = refs.clone();
                    let mut touched = Vec::new();
                    for &(kind, x, y, p) in batch {
                        if let Some(op) = op(&next, kind, x, y, p) {
                            next.apply(&op, &mut touched).unwrap();
                        }
                    }
                    touched.sort_unstable();
                    touched.dedup();
                    // A batch the existence model refuses (a component left
                    // without a possible configuration) is not applied.
                    let Ok(delta) = builder.rebuild(&next, &peg, &touched) else { continue };
                    ctx = ctx.patched(&delta.peg.graph, &delta.dirty);
                    prop_assert_eq!(bits(&ctx), bits(&ContextInfo::build(&delta.peg.graph)));
                    (refs, peg) = (next, delta.peg);
                }
            }
        }
    }
}
