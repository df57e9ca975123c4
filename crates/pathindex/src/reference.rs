//! Test oracle: the index maintenance this crate shipped before buckets
//! went flat, kept as it was — one owned node `Vec` per entry in nested
//! bucket lists, a `retain` scan, a walk to full depth from every node of
//! the ball, and a recount of every affected histogram. [`update_index`]
//! must leave every bucket entry-for-entry, in order and bit for bit, what
//! [`reference_update`] leaves, and both must agree with [`build_index`]
//! on the mutated graph.

use crate::build::{build_index, enumerate_dirty, update_index};
use crate::index::{IdentityOracle, PathIndex, PathIndexConfig};
use graphstore::hash::{FxHashMap, FxHashSet};
use graphstore::{EntityGraph, EntityId, Label};

const EPS: f64 = 1e-12;

#[derive(Clone, Debug, PartialEq)]
struct OwnedPath {
    nodes: Vec<u32>,
    prle: f64,
    prn: f64,
}

impl OwnedPath {
    fn prob(&self) -> f64 {
        self.prle * self.prn
    }
}

/// The nested layout: per canonical sequence, per bucket, owned entries.
struct ReferenceIndex {
    config: PathIndexConfig,
    map: FxHashMap<Vec<u16>, Vec<Vec<OwnedPath>>>,
    hist: FxHashMap<Vec<u16>, Vec<u32>>,
    n_entries: usize,
}

impl ReferenceIndex {
    fn from_flat(index: &PathIndex) -> Self {
        let mut map = FxHashMap::default();
        let mut hist = FxHashMap::default();
        for (seq, se) in &index.map {
            let buckets: Vec<Vec<OwnedPath>> = se
                .buckets
                .iter()
                .map(|b| {
                    b.iter(seq.len())
                        .map(|e| OwnedPath { nodes: e.nodes.to_vec(), prle: e.prle, prn: e.prn })
                        .collect()
                })
                .collect();
            map.insert(seq.clone(), buckets);
            hist.insert(seq.clone(), se.hist.clone());
        }
        Self { config: index.config().clone(), map, hist, n_entries: index.n_entries() }
    }

    fn insert(&mut self, canonical: Vec<u16>, entry: OwnedPath) {
        let bucket = self.config.bucket_of(entry.prob());
        let n_buckets = self.config.n_buckets();
        let buckets = self.map.entry(canonical).or_insert_with(|| vec![Vec::new(); n_buckets]);
        buckets[bucket].push(entry);
        self.n_entries += 1;
    }
}

fn reference_update(
    index: &mut ReferenceIndex,
    graph: &EntityGraph,
    oracle: &dyn IdentityOracle,
    dirty: &[bool],
) {
    let config = index.config.clone();
    let is_dirty = |n: u32| dirty.get(n as usize).copied().unwrap_or(true);
    let mut affected: FxHashSet<Vec<u16>> = FxHashSet::default();

    // 1. Drop entries that touch a dirty node.
    let mut removed_total = 0usize;
    for (seq, buckets) in index.map.iter_mut() {
        let mut removed_here = 0usize;
        for b in buckets.iter_mut() {
            let before = b.len();
            b.retain(|e| !e.nodes.iter().any(|&v| is_dirty(v)));
            removed_here += before - b.len();
        }
        if removed_here > 0 {
            affected.insert(seq.clone());
            removed_total += removed_here;
        }
    }
    index.n_entries -= removed_total;

    // 2–3. Re-enumerate from the ball around the dirty set, keeping only
    // dirty-touching paths, in sorted buckets.
    for (seq, entry) in reference_dirty_paths(graph, oracle, &config, dirty) {
        affected.insert(seq.clone());
        index.insert(seq, entry);
    }
    index.map.values_mut().flatten().for_each(|b| b.sort_by(|x, y| x.nodes.cmp(&y.nodes)));

    // 4. Recount histograms of affected sequences; drop emptied ones.
    for seq in affected {
        if index.map[&seq].iter().all(|b| b.is_empty()) {
            index.map.remove(&seq);
            index.hist.remove(&seq);
            continue;
        }
        let mut counts = vec![0u32; config.hist_grid.len()];
        for e in index.map[&seq].iter().flatten() {
            let p = e.prob();
            for (i, &g) in config.hist_grid.iter().enumerate() {
                if p >= g {
                    counts[i] += 1;
                }
            }
        }
        index.hist.insert(seq, counts);
    }
}

/// Every entry [`build_index`] makes on `graph` whose path holds a dirty
/// node: a walk to full depth from every node within `max_len` hops of
/// one.
fn reference_dirty_paths(
    graph: &EntityGraph,
    oracle: &dyn IdentityOracle,
    config: &PathIndexConfig,
    dirty: &[bool],
) -> Vec<(Vec<u16>, OwnedPath)> {
    let is_dirty = |n: u32| dirty.get(n as usize).copied().unwrap_or(true);
    // Region: ball of `max_len` hops around the dirty set.
    let n = graph.n_nodes();
    let mut in_region = vec![false; n];
    let mut frontier: Vec<u32> = Vec::new();
    for (v, r) in in_region.iter_mut().enumerate() {
        if is_dirty(v as u32) {
            *r = true;
            frontier.push(v as u32);
        }
    }
    for _ in 0..config.max_len {
        let mut next = Vec::new();
        for &v in &frontier {
            for &nb in graph.neighbors(EntityId(v)) {
                if !in_region[nb as usize] {
                    in_region[nb as usize] = true;
                    next.push(nb);
                }
            }
        }
        frontier = next;
    }

    // Walk from the region to full depth, keeping only dirty-touching
    // paths.
    let mut out = Vec::new();
    for v in (0..n as u32).filter(|&v| in_region[v as usize]) {
        enumerate_from(graph, oracle, config, EntityId(v), dirty, &mut out);
    }
    out
}

struct Walk<'a> {
    graph: &'a EntityGraph,
    oracle: &'a dyn IdentityOracle,
    config: &'a PathIndexConfig,
    dirty: &'a [bool],
    nodes: Vec<EntityId>,
    labels: Vec<u16>,
    all_trivial: bool,
}

fn enumerate_from(
    graph: &EntityGraph,
    oracle: &dyn IdentityOracle,
    config: &PathIndexConfig,
    start: EntityId,
    dirty: &[bool],
    out: &mut Vec<(Vec<u16>, OwnedPath)>,
) {
    let mut walk = Walk {
        graph,
        oracle,
        config,
        dirty,
        nodes: Vec::new(),
        labels: Vec::new(),
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
        emit_if_canonical(&walk, lp, prn, out);
        extend(&mut walk, lp, out);
        walk.nodes.pop();
        walk.labels.pop();
    }
}

fn extend(walk: &mut Walk<'_>, prle: f64, out: &mut Vec<(Vec<u16>, OwnedPath)>) {
    if walk.nodes.len() > walk.config.max_len {
        return;
    }
    let last = *walk.nodes.last().unwrap();
    let last_label = Label(*walk.labels.last().unwrap());
    for k in 0..walk.graph.neighbors(last).len() {
        let nb = EntityId(walk.graph.neighbors(last)[k]);
        let edge = walk.graph.edge_between(last, nb).unwrap();
        if walk.nodes.contains(&nb) || walk.graph.shares_ref_with_any(nb, &walk.nodes) {
            continue;
        }
        let nb_trivial = walk.oracle.always_exists(nb);
        let support: Vec<Label> = walk.graph.node(nb).labels.support().collect();
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
                emit_if_canonical(walk, new_prle, prn, out);
                extend(walk, new_prle, out);
            }
            walk.nodes.pop();
            walk.labels.pop();
            walk.all_trivial = was_trivial;
        }
    }
}

fn emit_if_canonical(walk: &Walk<'_>, prle: f64, prn: f64, out: &mut Vec<(Vec<u16>, OwnedPath)>) {
    let dirty = walk.dirty;
    if !walk.nodes.iter().any(|v| dirty.get(v.idx()).copied().unwrap_or(true)) {
        return;
    }
    let seq = &walk.labels;
    let reversed: Vec<u16> = seq.iter().rev().copied().collect();
    let is_canonical = match seq.cmp(&reversed) {
        std::cmp::Ordering::Less => true,
        std::cmp::Ordering::Greater => false,
        std::cmp::Ordering::Equal => {
            walk.nodes.len() == 1 || walk.nodes[0].0 < walk.nodes[walk.nodes.len() - 1].0
        }
    };
    if is_canonical {
        let nodes = walk.nodes.iter().map(|v| v.0).collect();
        out.push((seq.clone(), OwnedPath { nodes, prle, prn }));
    }
}

mod tests {
    use super::*;
    use graphstore::dist::{CondTable, EdgeProbability, LabelDist};
    use graphstore::{EntityGraphBuilder, LabelTable, RefId};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Independent node existence: `Prn` is the product of the weights.
    struct Weights(Vec<f64>);

    impl IdentityOracle for Weights {
        fn prn(&self, nodes: &[EntityId]) -> f64 {
            nodes.iter().map(|v| self.0[v.idx()]).product()
        }

        fn always_exists(&self, v: EntityId) -> bool {
            self.0[v.idx()] == 1.0
        }
    }

    /// A small uncertain graph: per node a label (and, for odd `second`,
    /// a second one at 0.4) and an existence weight; per node pair an
    /// edge probability — with `cpt`, the scale of a label-conditional
    /// table that is not symmetric and is zero for some label pairs.
    #[derive(Clone, Debug)]
    struct Spec {
        labels: Vec<(u16, u16)>,
        weights: Vec<f64>,
        edges: BTreeMap<(u8, u8), f64>,
        cpt: bool,
    }

    impl Spec {
        fn graph(&self) -> (EntityGraph, Weights) {
            let table = LabelTable::from_names(["x", "y", "z"]);
            let n_labels = table.len();
            let mut b = EntityGraphBuilder::new(table);
            for (i, &(first, second)) in self.labels.iter().enumerate() {
                let dist = if second % 2 == 1 && second / 2 != first {
                    LabelDist::from_pairs(
                        &[(Label(first), 0.6), (Label(second / 2), 0.4)],
                        n_labels,
                    )
                } else {
                    LabelDist::delta(Label(first), n_labels)
                };
                b.add_node(dist, vec![RefId(i as u32)]);
            }
            for (&(x, y), &p) in &self.edges {
                let prob = if self.cpt {
                    let cell = |a: Label, b: Label| {
                        p * ((a.idx() * 3 + b.idx() + x as usize) % 4) as f64 / 3.0
                    };
                    EdgeProbability::Conditional(CondTable::from_fn(n_labels, cell))
                } else {
                    EdgeProbability::Independent(p)
                };
                b.add_edge(EntityId(x as u32), EntityId(y as u32), prob);
            }
            (b.build(), Weights(self.weights.clone()))
        }
    }

    /// One change to a [`Spec`]; node arguments are taken modulo its size.
    #[derive(Clone, Debug)]
    enum Change {
        SetEdge(u8, u8, f64),
        DeleteEdge(u8, u8),
        Relabel(u8, u16, u16),
        Reweigh(u8, f64),
        /// A brand-new node id, attached to an existing node.
        NewNode(u8, u16, f64),
    }

    fn weight() -> impl Strategy<Value = f64> {
        prop_oneof![Just(1.0), 0.5f64..1.0]
    }

    fn spec_strategy() -> impl Strategy<Value = Spec> {
        (4usize..=8).prop_flat_map(|n| {
            let labels = proptest::collection::vec((0u16..3, 0u16..6), n);
            let weights = proptest::collection::vec(weight(), n);
            let edges =
                proptest::collection::vec((0u8..n as u8, 0u8..n as u8, 0.3f64..=1.0), 0..=(2 * n));
            (labels, weights, edges, any::<bool>()).prop_map(|(labels, weights, raw, cpt)| {
                let edges = raw
                    .into_iter()
                    .filter(|(a, b, _)| a != b)
                    .map(|(a, b, p)| ((a.min(b), a.max(b)), p))
                    .collect();
                Spec { labels, weights, edges, cpt }
            })
        })
    }

    fn change_strategy() -> impl Strategy<Value = Change> {
        prop_oneof![
            (0u8..8, 0u8..8, 0.3f64..=1.0).prop_map(|(a, b, p)| Change::SetEdge(a, b, p)),
            (0u8..8, 0u8..8).prop_map(|(a, b)| Change::DeleteEdge(a, b)),
            (0u8..8, 0u16..3, 0u16..6).prop_map(|(v, l, s)| Change::Relabel(v, l, s)),
            (0u8..8, weight()).prop_map(|(v, w)| Change::Reweigh(v, w)),
            (0u8..8, 0u16..3, 0.3f64..=1.0).prop_map(|(v, l, p)| Change::NewNode(v, l, p)),
        ]
    }

    /// Applies `changes`; returns the mutated spec and the nodes that
    /// truly changed (both endpoints of a touched edge, relabelled,
    /// reweighed and new nodes).
    fn mutate(before: &Spec, changes: &[Change]) -> (Spec, Vec<bool>) {
        let mut after = before.clone();
        let n = before.labels.len() as u8;
        let mut changed = vec![false; before.labels.len()];
        for change in changes {
            match *change {
                Change::SetEdge(a, b, p) => {
                    let (a, b) = (a % n, b % n);
                    if a != b {
                        after.edges.insert((a.min(b), a.max(b)), p);
                        changed[a as usize] = true;
                        changed[b as usize] = true;
                    }
                }
                Change::DeleteEdge(a, b) => {
                    let (a, b) = (a % n, b % n);
                    if after.edges.remove(&(a.min(b), a.max(b))).is_some() {
                        changed[a as usize] = true;
                        changed[b as usize] = true;
                    }
                }
                Change::Relabel(v, first, second) => {
                    after.labels[(v % n) as usize] = (first, second);
                    changed[(v % n) as usize] = true;
                }
                Change::Reweigh(v, w) => {
                    after.weights[(v % n) as usize] = w;
                    changed[(v % n) as usize] = true;
                }
                Change::NewNode(v, label, p) => {
                    let id = after.labels.len() as u8;
                    after.labels.push((label, 0));
                    after.weights.push(1.0);
                    after.edges.insert((v % n, id), p);
                    changed[(v % n) as usize] = true;
                    changed.push(true);
                }
            }
        }
        (after, changed)
    }

    /// Every bucket of `got` against the reference's: same entries, same
    /// order, same bits.
    fn assert_same_buckets(got: &PathIndex, want: &ReferenceIndex) -> Result<(), TestCaseError> {
        prop_assert_eq!(got.n_entries(), want.n_entries);
        prop_assert_eq!(got.n_sequences(), want.map.len());
        prop_assert_eq!(want.hist.len(), want.map.len());
        for (seq, buckets) in &want.map {
            let se = got.map.get(seq);
            prop_assert!(se.is_some(), "sequence {:?} missing", seq);
            let se = se.unwrap();
            prop_assert_eq!(&se.hist, &want.hist[seq], "histogram of {:?}", seq);
            prop_assert_eq!(se.buckets.len(), buckets.len());
            for (b, (flat, nested)) in se.buckets.iter().zip(buckets).enumerate() {
                prop_assert_eq!(flat.len(), nested.len(), "bucket {} of {:?}", b, seq);
                for (e, o) in flat.iter(seq.len()).zip(nested) {
                    prop_assert_eq!(e.nodes, o.nodes.as_slice());
                    prop_assert_eq!(e.prle.to_bits(), o.prle.to_bits());
                    prop_assert_eq!(e.prn.to_bits(), o.prn.to_bits());
                }
            }
        }
        Ok(())
    }

    /// `(bucket, nodes, prle bits, prn bits)` of every entry, sorted.
    fn entry_set(index: &PathIndex, seq: &[u16]) -> Vec<(usize, Vec<u32>, u64, u64)> {
        let mut out = Vec::new();
        for (b, bucket) in index.map[seq].buckets.iter().enumerate() {
            for e in bucket.iter(seq.len()) {
                out.push((b, e.nodes.to_vec(), e.prle.to_bits(), e.prn.to_bits()));
            }
        }
        out.sort();
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// New ≡ reference (entry order and bits) ≡ a fresh build (entry
        /// sets and histograms), for dirty sets that are exactly the
        /// changed nodes, supersets of them, and — `dirty` cut back to the
        /// old node count — new ids the flags do not even cover.
        #[test]
        fn update_matches_reference_and_rebuild(
            before in spec_strategy(),
            changes in proptest::collection::vec(change_strategy(), 0..=4),
            extra in proptest::collection::vec(any::<bool>(), 12),
            extra_on in any::<bool>(),
            cut in any::<bool>(),
            max_len in 1usize..=3,
        ) {
            let (after, mut dirty) = mutate(&before, &changes);
            if extra_on {
                for (d, e) in dirty.iter_mut().zip(&extra) {
                    *d |= *e;
                }
            }
            if cut {
                dirty.truncate(before.labels.len());
            }
            let config = PathIndexConfig { max_len, beta: 0.15, threads: 1, ..Default::default() };
            let (g0, w0) = before.graph();
            let (g1, w1) = after.graph();

            let mut index = build_index(&g0, &w0, &config);
            let mut reference = ReferenceIndex::from_flat(&index);
            update_index(&mut index, &g0, &w0, &g1, &w1, &dirty);
            reference_update(&mut reference, &g1, &w1, &dirty);
            assert_same_buckets(&index, &reference)?;

            let fresh = build_index(&g1, &w1, &config);
            prop_assert_eq!(index.n_entries(), fresh.n_entries());
            prop_assert_eq!(index.n_sequences(), fresh.n_sequences());
            for (seq, se) in &fresh.map {
                prop_assert!(index.map.contains_key(seq), "sequence {:?} missing", seq);
                prop_assert_eq!(&index.map[seq].hist, &se.hist, "histogram of {:?}", seq);
                prop_assert_eq!(entry_set(&index, seq), entry_set(&fresh, seq));
            }
        }

        /// The update's walk outward from the dirty nodes finds exactly
        /// what the ball re-enumeration finds — on the previous graph and
        /// on the new one, bit for bit — and on the previous graph that is
        /// exactly the built index's entries through a dirty node.
        #[test]
        fn dirty_walk_matches_ball_enumeration(
            before in spec_strategy(),
            changes in proptest::collection::vec(change_strategy(), 0..=4),
            extra in proptest::collection::vec(any::<bool>(), 12),
            extra_on in any::<bool>(),
            max_len in 1usize..=3,
        ) {
            let (after, mut dirty) = mutate(&before, &changes);
            if extra_on {
                for (d, e) in dirty.iter_mut().zip(&extra) {
                    *d |= *e;
                }
            }
            let config = PathIndexConfig { max_len, beta: 0.15, threads: 1, ..Default::default() };
            let key = |seq: &[u16], nodes: Vec<u32>, prle: f64, prn: f64| {
                (seq.to_vec(), nodes, prle.to_bits(), prn.to_bits())
            };
            for (g, w) in [before.graph(), after.graph()] {
                let mut walked = Vec::new();
                enumerate_dirty(&config, &g, &w, &dirty, &mut |seq, nodes, prle, prn| {
                    walked.push(key(seq, nodes.iter().map(|v| v.0).collect(), prle, prn));
                });
                let mut ball: Vec<_> = reference_dirty_paths(&g, &w, &config, &dirty)
                    .into_iter()
                    .map(|(seq, e)| key(&seq, e.nodes, e.prle, e.prn))
                    .collect();
                walked.sort();
                ball.sort();
                prop_assert!(walked.windows(2).all(|p| p[0] != p[1]), "a path emitted twice");
                prop_assert_eq!(&walked, &ball);

                let mut stored: Vec<_> = build_index(&g, &w, &config)
                    .map
                    .iter()
                    .flat_map(|(seq, se)| se.iter(seq.len()).map(move |e| (seq, e)))
                    .filter(|(_, e)| e.nodes.iter().any(|&v| dirty.get(v as usize).is_none_or(|d| *d)))
                    .map(|(seq, e)| key(seq, e.nodes.to_vec(), e.prle, e.prn))
                    .collect();
                stored.sort();
                prop_assert_eq!(&walked, &stored);
            }
        }
    }
}
