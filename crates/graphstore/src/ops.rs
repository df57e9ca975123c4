//! Live mutation ops over a [`RefGraph`].
//!
//! A [`GraphOp`] is the unit of change a live graph accepts: upsert or
//! delete a reference, an uncertain edge, or linkage evidence (a declared
//! reference set / pair posterior). [`RefGraph::apply`] validates and
//! applies one op, reporting which *entities* (creation-log positions)
//! it directly touched — the seed of the dirty set incremental index
//! maintenance works from.
//!
//! Every path here returns `Err` instead of panicking: ops arrive over
//! the wire from remote clients, and a malformed op must fail the
//! request, not the server. A failed op leaves the graph unchanged;
//! callers wanting batch atomicity apply to a clone and commit on
//! success (the serving layer does exactly that).

use crate::dist::{EdgeProbability, LabelDist};
use crate::refgraph::{RefGraph, RefId};

/// One live mutation. Edge probabilities are independent-form here;
/// label-conditional edge updates stay a build-time feature.
#[derive(Clone, Debug, PartialEq)]
#[allow(missing_docs)] // variant docs cover the fields
pub enum GraphOp {
    /// Adds a reference (`r: None`) or replaces the label distribution of
    /// a live reference (`r: Some`). Labels are `(label id, prob)` pairs
    /// over the graph's alphabet.
    UpsertRef { r: Option<RefId>, labels: Vec<(u16, f64)> },
    /// Tombstones a reference: its incident edges are removed, and its
    /// singleton entity plus every declared set containing it die.
    DeleteRef { r: RefId },
    /// Adds or replaces the undirected uncertain edge `{a, b}`.
    UpsertEdge { a: RefId, b: RefId, p: f64 },
    /// Removes the edge `{a, b}`.
    DeleteEdge { a: RefId, b: RefId },
    /// Declares a reference set with raw factor value `weight`, or
    /// replaces the weight of the live set with exactly these members.
    UpsertSet { members: Vec<RefId>, weight: f64 },
    /// Tombstones the live set with exactly these members.
    DeleteSet { members: Vec<RefId> },
    /// Overrides the raw factor value of the singleton `{r}`.
    SetSingletonWeight { r: RefId, weight: f64 },
    /// Linkage evidence shorthand: pair set `{a, b}` with posterior `q`
    /// (see [`RefGraph::add_pair_set_with_posterior`]).
    PairPosterior { a: RefId, b: RefId, q: f64 },
}

fn finite_in(v: f64, lo: f64, hi: f64, what: &str) -> Result<(), String> {
    if !v.is_finite() || v < lo || v > hi {
        return Err(format!("{what} {v} out of range [{lo}, {hi}]"));
    }
    Ok(())
}

impl RefGraph {
    fn live_ref(&self, r: RefId, what: &str) -> Result<(), String> {
        if r.idx() >= self.n_refs() {
            return Err(format!("{what} {:?} out of range ({} refs)", r, self.n_refs()));
        }
        if !self.ref_is_alive(r) {
            return Err(format!("{what} {r:?} was deleted"));
        }
        Ok(())
    }

    /// Every entity (live or dead) whose member list contains `r`: its
    /// singleton, then the declared sets holding it, in creation order.
    fn entities_containing(&self, r: RefId, touched: &mut Vec<u32>) {
        touched.push(self.singleton_entity(r));
        touched.extend_from_slice(self.sets_containing(r));
    }

    /// Validates and applies one mutation, appending the entity ids it
    /// directly touched to `touched`. On `Err` the graph is unchanged.
    pub fn apply(&mut self, op: &GraphOp, touched: &mut Vec<u32>) -> Result<(), String> {
        self.apply_with(op, touched, Self::entities_containing)
    }

    /// [`RefGraph::apply`] with the lookup of the entities containing a
    /// reference passed in, so a test can run the same ops through the
    /// scan the lookup replaced.
    fn apply_with(
        &mut self,
        op: &GraphOp,
        touched: &mut Vec<u32>,
        entities_containing: fn(&Self, RefId, &mut Vec<u32>),
    ) -> Result<(), String> {
        match op {
            GraphOp::UpsertRef { r, labels } => {
                let n_labels = self.label_table().len();
                let mut pairs = Vec::with_capacity(labels.len());
                for &(l, p) in labels {
                    if (l as usize) >= n_labels {
                        return Err(format!("label id {l} out of range ({n_labels} labels)"));
                    }
                    finite_in(p, 0.0, 1.0, "label probability")?;
                    pairs.push((crate::labels::Label(l), p));
                }
                let dist = LabelDist::from_pairs(&pairs, n_labels);
                match r {
                    None => {
                        let id = self.add_ref(dist);
                        touched.push(self.singleton_entity(id));
                    }
                    Some(r) => {
                        self.live_ref(*r, "reference")?;
                        self.replace_ref_labels(*r, dist);
                        entities_containing(self, *r, touched);
                    }
                }
            }
            GraphOp::DeleteRef { r } => {
                self.live_ref(*r, "reference")?;
                // Entities merging an edge with a removed endpoint change
                // too: collect the edge partners before removal.
                let mut partners: Vec<RefId> = Vec::new();
                for e in self.edges() {
                    if e.a == *r {
                        partners.push(e.b);
                    } else if e.b == *r {
                        partners.push(e.a);
                    }
                }
                entities_containing(self, *r, touched);
                for p in partners {
                    entities_containing(self, p, touched);
                }
                self.delete_ref(*r);
            }
            GraphOp::UpsertEdge { a, b, p } => {
                self.live_ref(*a, "edge endpoint")?;
                self.live_ref(*b, "edge endpoint")?;
                if a == b {
                    return Err("self loops are not part of the model".into());
                }
                finite_in(*p, 0.0, 1.0, "edge probability")?;
                self.add_edge(*a, *b, EdgeProbability::Independent(*p));
                entities_containing(self, *a, touched);
                entities_containing(self, *b, touched);
            }
            GraphOp::DeleteEdge { a, b } => {
                self.live_ref(*a, "edge endpoint")?;
                self.live_ref(*b, "edge endpoint")?;
                if !self.delete_edge(*a, *b) {
                    return Err(format!("no edge between {a:?} and {b:?}"));
                }
                entities_containing(self, *a, touched);
                entities_containing(self, *b, touched);
            }
            GraphOp::UpsertSet { members, weight } => {
                finite_in(*weight, 0.0, f64::MAX, "set weight")?;
                let mut sorted = members.clone();
                sorted.sort_unstable();
                sorted.dedup();
                if sorted.len() < 2 {
                    return Err("reference sets must have at least two distinct members".into());
                }
                for &m in &sorted {
                    self.live_ref(m, "set member")?;
                }
                match self.find_live_set(&sorted) {
                    Some(s) => {
                        self.replace_set_weight(s, *weight);
                        touched.push(self.set_entity(s));
                    }
                    None => {
                        let s = self.add_ref_set(sorted, *weight);
                        touched.push(self.set_entity(s));
                    }
                }
            }
            GraphOp::DeleteSet { members } => {
                let s = self
                    .find_live_set(members)
                    .ok_or_else(|| "no live set with these members".to_string())?;
                touched.push(self.set_entity(s));
                self.delete_set(s);
            }
            GraphOp::SetSingletonWeight { r, weight } => {
                self.live_ref(*r, "reference")?;
                finite_in(*weight, 0.0, f64::MAX, "singleton weight")?;
                self.set_singleton_weight(*r, *weight);
                touched.push(self.singleton_entity(*r));
            }
            GraphOp::PairPosterior { a, b, q } => {
                self.live_ref(*a, "reference")?;
                self.live_ref(*b, "reference")?;
                if a == b {
                    return Err("pair evidence needs two distinct references".into());
                }
                finite_in(*q, 0.0, 1.0, "pair posterior")?;
                self.set_singleton_weight(*a, (1.0 - q).sqrt());
                self.set_singleton_weight(*b, (1.0 - q).sqrt());
                touched.push(self.singleton_entity(*a));
                touched.push(self.singleton_entity(*b));
                let members = vec![*a, *b];
                match self.find_live_set(&members) {
                    Some(s) => {
                        self.replace_set_weight(s, q.sqrt());
                        touched.push(self.set_entity(s));
                    }
                    None => {
                        let s = self.add_ref_set(members, q.sqrt());
                        touched.push(self.set_entity(s));
                    }
                }
            }
        }
        Ok(())
    }

    /// Applies a batch in order, returning the sorted, deduplicated set of
    /// directly-touched entity ids. The batch is atomic at the caller's
    /// discretion: on `Err`, ops before the failing one *have* been
    /// applied — apply to a clone and commit on success for all-or-nothing
    /// semantics.
    pub fn apply_all(&mut self, ops: &[GraphOp]) -> Result<Vec<u32>, String> {
        let mut touched = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            self.apply(op, &mut touched).map_err(|e| format!("op {i}: {e}"))?;
        }
        touched.sort_unstable();
        touched.dedup();
        Ok(touched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::{Label, LabelTable};
    use crate::refgraph::{EntityRef, RefSetId};
    use proptest::prelude::*;

    impl RefGraph {
        /// The walk [`RefGraph::sets_containing`] replaced: every entity of
        /// the creation log whose members hold `r`. The oracle the lookup
        /// is checked against.
        fn entities_containing_scan(&self, r: RefId, touched: &mut Vec<u32>) {
            touched.push(self.singleton_entity(r));
            for (i, ent) in self.entities().iter().enumerate() {
                if let EntityRef::Set(s) = ent {
                    if self.ref_set(*s).members.contains(&r) {
                        touched.push(i as u32);
                    }
                }
            }
        }

        /// The scan [`RefGraph::find_live_set`] replaced: every declared
        /// set, newest first. The oracle the lookup is checked against.
        fn find_live_set_scan(&self, members: &[RefId]) -> Option<RefSetId> {
            let mut sorted: Vec<RefId> = members.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            (0..self.ref_sets().len())
                .rev()
                .map(|j| RefSetId(j as u32))
                .find(|&s| self.set_is_alive(s) && self.ref_set(s).members == sorted)
        }
    }

    /// Picks an op of any of the eight kinds from `pick`, valid or not
    /// against `g` (failed ops must fail alike on both paths).
    fn draw_op(g: &RefGraph, pick: &[u32]) -> GraphOp {
        let n = g.n_refs() as u32;
        let r = |i: usize| RefId(pick[i] % n);
        let members = vec![r(1), r(2), r(3)];
        match pick[0] % 8 {
            0 => GraphOp::UpsertRef {
                r: pick[4].is_multiple_of(2).then(|| r(1)),
                labels: vec![(0, 0.5), (1, 0.5)],
            },
            1 => GraphOp::DeleteRef { r: r(1) },
            2 => GraphOp::UpsertEdge { a: r(1), b: r(2), p: 0.6 },
            3 => GraphOp::DeleteEdge { a: r(1), b: r(2) },
            4 => GraphOp::UpsertSet { members, weight: 0.7 },
            5 => {
                // Mostly a live set, so deletions do happen.
                let live: Vec<&Vec<RefId>> = (0..g.ref_sets().len())
                    .filter(|&j| g.set_is_alive(RefSetId(j as u32)))
                    .map(|j| &g.ref_sets()[j].members)
                    .collect();
                let members = match live.len() {
                    0 => members,
                    n => live[pick[4] as usize % n].clone(),
                };
                GraphOp::DeleteSet { members }
            }
            6 => GraphOp::SetSingletonWeight { r: r(1), weight: 0.4 },
            _ => GraphOp::PairPosterior { a: r(1), b: r(2), q: 0.3 },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// The lookup reports exactly what the scan did, op by op and for
        /// a whole batch through `apply_all`.
        #[test]
        fn touched_lists_equal_the_scan(
            picks in proptest::collection::vec(proptest::collection::vec(0u32..1000, 5), 1..40),
        ) {
            let mut fast = two_label_graph();
            let mut scan = fast.clone();
            let start = fast.clone();
            let mut ops = Vec::new();
            for pick in &picks {
                let op = draw_op(&fast, pick);
                let (mut a, mut b) = (Vec::new(), Vec::new());
                let ra = fast.apply(&op, &mut a);
                let rb = scan.apply_with(&op, &mut b, RefGraph::entities_containing_scan);
                prop_assert_eq!(ra.is_ok(), rb.is_ok(), "{:?}", op);
                prop_assert_eq!(&a, &b, "{:?}", op);
                if ra.is_ok() {
                    ops.push(op);
                }
            }
            let mut want = Vec::new();
            let mut replay = start.clone();
            for op in &ops {
                replay.apply_with(op, &mut want, RefGraph::entities_containing_scan).unwrap();
            }
            want.sort_unstable();
            want.dedup();
            prop_assert_eq!(start.clone().apply_all(&ops).unwrap(), want);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Before every op of a random stream, the lookup finds the set
        /// the scan does — for the members the op names, and for those
        /// of every set declared so far.
        #[test]
        fn find_live_set_equals_the_scan(
            picks in proptest::collection::vec(proptest::collection::vec(0u32..1000, 5), 1..40),
        ) {
            let mut g = two_label_graph();
            let mut touched = Vec::new();
            for pick in &picks {
                let op = draw_op(&g, pick);
                let named = match &op {
                    GraphOp::UpsertSet { members, .. } | GraphOp::DeleteSet { members } => {
                        members.clone()
                    }
                    GraphOp::UpsertEdge { a, b, .. }
                    | GraphOp::DeleteEdge { a, b }
                    | GraphOp::PairPosterior { a, b, .. } => vec![*b, *a],
                    GraphOp::UpsertRef { r, .. } => r.iter().copied().collect(),
                    GraphOp::DeleteRef { r } | GraphOp::SetSingletonWeight { r, .. } => {
                        vec![*r, RefId(9)]
                    }
                };
                let declared = g.ref_sets().iter().map(|s| s.members.clone());
                for members in std::iter::once(named).chain(declared) {
                    prop_assert_eq!(
                        g.find_live_set(&members),
                        g.find_live_set_scan(&members),
                        "{:?}", members
                    );
                }
                let _ = g.apply(&op, &mut touched);
            }
        }
    }

    fn two_label_graph() -> RefGraph {
        let table = LabelTable::from_names(["x", "y"]);
        let mut g = RefGraph::new(table);
        for _ in 0..4 {
            g.add_ref(LabelDist::delta(Label(0), 2));
        }
        g.add_edge(RefId(0), RefId(1), EdgeProbability::Independent(0.5));
        g
    }

    #[test]
    fn upsert_and_delete_round_trip() {
        let mut g = two_label_graph();
        let mut touched = Vec::new();
        g.apply(&GraphOp::UpsertRef { r: None, labels: vec![(1, 1.0)] }, &mut touched).unwrap();
        assert_eq!(g.n_refs(), 5);
        assert_eq!(touched, vec![4]);
        g.apply(&GraphOp::UpsertEdge { a: RefId(4), b: RefId(0), p: 0.7 }, &mut touched).unwrap();
        assert_eq!(g.n_edges(), 2);
        g.apply(&GraphOp::DeleteRef { r: RefId(4) }, &mut touched).unwrap();
        assert!(!g.ref_is_alive(RefId(4)));
        assert_eq!(g.n_edges(), 1, "incident edge removed");
        assert!(g.entity_is_dead(4));
    }

    #[test]
    fn set_upsert_updates_weight_in_place() {
        let mut g = two_label_graph();
        let mut touched = Vec::new();
        g.apply(
            &GraphOp::UpsertSet { members: vec![RefId(0), RefId(1)], weight: 0.5 },
            &mut touched,
        )
        .unwrap();
        let n = g.n_entities();
        g.apply(
            &GraphOp::UpsertSet { members: vec![RefId(1), RefId(0)], weight: 0.9 },
            &mut touched,
        )
        .unwrap();
        assert_eq!(g.n_entities(), n, "same members update in place");
        assert_eq!(g.ref_sets()[0].weight, 0.9);
        g.apply(&GraphOp::DeleteSet { members: vec![RefId(0), RefId(1)] }, &mut touched).unwrap();
        assert!(g.entity_is_dead(n - 1));
        // Re-declaring after a delete creates a fresh entity.
        g.apply(
            &GraphOp::UpsertSet { members: vec![RefId(0), RefId(1)], weight: 0.4 },
            &mut touched,
        )
        .unwrap();
        assert_eq!(g.n_entities(), n + 1);
    }

    #[test]
    fn invalid_ops_leave_graph_unchanged() {
        let mut g = two_label_graph();
        let before_edges = g.n_edges();
        let mut touched = Vec::new();
        for bad in [
            GraphOp::UpsertRef { r: Some(RefId(99)), labels: vec![(0, 1.0)] },
            GraphOp::UpsertRef { r: None, labels: vec![(7, 1.0)] },
            GraphOp::UpsertEdge { a: RefId(0), b: RefId(0), p: 0.5 },
            GraphOp::UpsertEdge { a: RefId(0), b: RefId(1), p: 1.5 },
            GraphOp::DeleteEdge { a: RefId(2), b: RefId(3) },
            GraphOp::UpsertSet { members: vec![RefId(1)], weight: 0.5 },
            GraphOp::DeleteSet { members: vec![RefId(2), RefId(3)] },
            GraphOp::PairPosterior { a: RefId(1), b: RefId(1), q: 0.5 },
        ] {
            assert!(g.apply(&bad, &mut touched).is_err(), "{bad:?} should fail");
        }
        assert_eq!(g.n_refs(), 4);
        assert_eq!(g.n_edges(), before_edges);
        // Ops on a deleted reference fail.
        g.apply(&GraphOp::DeleteRef { r: RefId(3) }, &mut touched).unwrap();
        assert!(g.apply(&GraphOp::DeleteRef { r: RefId(3) }, &mut touched).is_err());
        assert!(g
            .apply(&GraphOp::UpsertEdge { a: RefId(3), b: RefId(0), p: 0.5 }, &mut touched)
            .is_err());
    }

    #[test]
    fn apply_all_reports_sorted_touched_entities() {
        let mut g = two_label_graph();
        let touched = g
            .apply_all(&[
                GraphOp::UpsertEdge { a: RefId(2), b: RefId(3), p: 0.8 },
                GraphOp::PairPosterior { a: RefId(0), b: RefId(2), q: 0.6 },
            ])
            .unwrap();
        // Edge touches {2, 3}; pair evidence touches {0, 2, new set 4}.
        assert_eq!(touched, vec![0, 2, 3, 4]);
    }
}
