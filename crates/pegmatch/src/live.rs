//! Live graph mutation: applying [`GraphOp`] batches to a compiled graph
//! with incremental maintenance of the existence model, path index and
//! context tables.
//!
//! [`batch_step`] is the one step that turns an op batch into the next
//! reference network and PEG; every store takes it, and [`apply_ops`]
//! then patches the path index and context tables. Neither mutates its
//! inputs — the previous [`Peg`] and [`OfflineIndex`] stay valid for
//! in-flight queries — and the results are **bit-identical** to
//! recompiling the mutated reference network from scratch.
//!
//! What a batch costs ([`UpdatePhases`] times each step):
//!
//! * **∝ what it touched** — the entity graph merges again only the
//!   touched and appended entities' label rows and the pairs incident to
//!   them (node ids stay stable: creation-order numbering, tombstoned
//!   deletions; an entity's references never change); the existence
//!   rebuild regroups only the components the batch reaches and shares
//!   every other component table by `Arc`; the path index enumerates the
//!   entries through a dirty node in the previous and in the new graph,
//!   grown outward from the dirty nodes, and swaps the one set for the
//!   other by key, rebuilding only the sorted chunks a change falls into
//!   and sharing every other chunk with the previous generation;
//!   histogram counts move by one per entry that left or entered;
//!   context rows are recomputed for dirty nodes and their neighbours.
//! * **still ∝ n** — copies of flat columns (the reference network's
//!   and the entity graph's label and reference columns, the existence
//!   model's per-node component and position columns: tens of µs), and,
//!   measured on the 8,032-entity benchmark graph (40,771 entity edges,
//!   one CPU, medians per batch): the reference network's edge list and
//!   edge map, cloned with it (the list alone is 0.27–0.36 ms of
//!   `refs_clone`'s 0.34–0.41); in
//!   `compile` (2.1–2.5 ms), one scan of the reference edges for the
//!   touched ones (0.16 ms with the merges), the untouched entity edges
//!   copied (0.34–0.40 ms), the edge map rebuilt (0.75–0.86 ms) and the
//!   CSR rebuilt (0.68–0.73 ms); and the context tables, copied before
//!   they are patched (0.18–0.21 ms of `context`). The index clone takes
//!   a reference per bucket (`index_copy`, 0.05 ms).

use crate::error::PegError;
use crate::model::{Peg, PegBuilder, PegDelta};
use crate::offline::{OfflineIndex, OfflineOptions};
use graphstore::{GraphOp, RefGraph};
use std::time::{Duration, Instant};

/// Where one mutation batch spent its time, step by step in execution
/// order. [`batch_step`] fills the first four, [`apply_ops`] the rest; a
/// sharded store leaves the rest zero: its shards rebuild their indexes.
#[derive(Clone, Copy, Debug, Default)]
pub struct UpdatePhases {
    /// Cloning the reference network the ops are applied to, with room
    /// for them: its flat label column, its edge list and its edge map.
    pub refs_clone: Duration,
    /// Validating and applying the ops.
    pub apply_all: Duration,
    /// Patching the entity graph at the touched entities: the node
    /// columns copied, the touched label rows and incident pairs merged
    /// again, the edge list, edge map and CSR rebuilt.
    pub compile: Duration,
    /// The existence rebuild over the components the batch reaches, and
    /// dirty marking.
    pub existence: Duration,
    /// Cloning the previous path index: its sequence table, one shared
    /// reference per bucket.
    pub index_copy: Duration,
    /// Enumerating the entries through a dirty node on the previous
    /// graph: the entries to take out.
    pub index_drop: Duration,
    /// Enumerating the entries through a dirty node on the new graph, and
    /// swapping them in by key: only the chunks a change falls into are
    /// rebuilt.
    pub index_enumerate: Duration,
    /// Removing emptied sequences (the counts themselves move as entries
    /// are taken out and put in).
    pub histogram: Duration,
    /// Copying and patching the context tables.
    pub context: Duration,
}

impl UpdatePhases {
    /// Every phase with its name, in execution order.
    pub fn named(&self) -> [(&'static str, Duration); 9] {
        [
            ("refs_clone", self.refs_clone),
            ("apply_all", self.apply_all),
            ("compile", self.compile),
            ("existence", self.existence),
            ("index_copy", self.index_copy),
            ("index_drop", self.index_drop),
            ("index_enumerate", self.index_enumerate),
            ("histogram", self.histogram),
            ("context", self.context),
        ]
    }
}

/// What one batch did to a store, in the one shape every store reports.
#[derive(Clone, Debug)]
pub struct UpdateStats {
    /// Dirty nodes in the patched PEG (existence-changed ∪ touched).
    pub n_dirty: usize,
    /// Shards rebuilt because the dirty ball reached their halo (or zero).
    pub rebuilt_shards: usize,
    /// Existence components carried over from the previous model by `Arc`.
    pub reused_components: usize,
    /// Time spent in each step.
    pub phases: UpdatePhases,
}

/// Applies `ops` to a copy of `refs`, cloned with room for them, and
/// patches `prev` to it: the one batch step every store takes. Returns
/// the mutated network, the touched entity ids, the patched PEG with its
/// dirty flags, and the phases it ran (`refs_clone`, `apply_all`,
/// `compile`, `existence`). Atomic: a failing batch (invalid op at any
/// position) leaves every input untouched and returns that op's error.
pub fn batch_step(
    builder: &PegBuilder,
    refs: &RefGraph,
    prev: &Peg,
    ops: &[GraphOp],
) -> Result<(RefGraph, Vec<u32>, PegDelta, UpdatePhases), PegError> {
    let mut phases = UpdatePhases::default();
    let t = Instant::now();
    let mut refs = refs.clone_with_room(ops.len());
    phases.refs_clone = t.elapsed();
    let t = Instant::now();
    let touched = refs.apply_all(ops).map_err(PegError::Invalid)?;
    phases.apply_all = t.elapsed();
    let delta = builder.rebuild(&refs, prev, &touched)?;
    phases.compile = delta.compile_time;
    phases.existence = delta.existence_time;
    Ok((refs, touched, delta, phases))
}

/// The artifacts of one mutation batch: a full replacement set for the
/// previous generation.
#[derive(Clone, Debug)]
pub struct LiveUpdate {
    /// The mutated reference network (input to the *next* mutation).
    pub refs: RefGraph,
    /// The patched PEG.
    pub peg: Peg,
    /// The patched offline artifacts.
    pub index: OfflineIndex,
    /// Per-node dirty flags: nodes whose compiled semantics may differ.
    pub dirty: Vec<bool>,
    /// Existence components carried over from the previous model by `Arc`.
    pub reused_components: usize,
    /// Directly-touched entity ids reported by the op batch.
    pub touched: Vec<u32>,
    /// Time spent in each step.
    pub phases: UpdatePhases,
}

impl LiveUpdate {
    /// Number of dirty nodes (the seed set index maintenance worked from).
    pub fn n_dirty(&self) -> usize {
        self.dirty.iter().filter(|d| **d).count()
    }
}

/// Applies `ops` to `refs` through [`batch_step`], then patches the path
/// index and context tables. Atomic, as the step is.
///
/// `opts` must match the options `prev_index` was built with: the patched
/// index inherits its configuration, and a mismatch would break the
/// rebuild-equivalence guarantee. A differing `max_len`, `beta`, `gamma`
/// or `hist_grid` is refused with [`PegError::Invalid`] naming the field
/// (`threads` may differ — it does not change what is indexed).
pub fn apply_ops(
    builder: &PegBuilder,
    opts: &OfflineOptions,
    refs: &RefGraph,
    prev: &Peg,
    prev_index: &OfflineIndex,
    ops: &[GraphOp],
) -> Result<LiveUpdate, PegError> {
    let (want, have) = (&opts.index, prev_index.paths.config());
    let differing = [
        ("max_len", want.max_len != have.max_len),
        ("beta", want.beta != have.beta),
        ("gamma", want.gamma != have.gamma),
        ("hist_grid", want.hist_grid != have.hist_grid),
    ];
    if let Some((field, _)) = differing.iter().find(|(_, differs)| *differs) {
        return Err(PegError::Invalid(format!(
            "apply_ops: opts.index.{field} differs from the configuration the previous index \
             was built with ({want:?} vs {have:?})"
        )));
    }

    let (refs, touched, delta, mut phases) = batch_step(builder, refs, prev, ops)?;
    let index = prev_index.rebuild_delta(prev, &delta.peg, &delta.dirty, &mut phases)?;
    Ok(LiveUpdate {
        refs,
        peg: delta.peg,
        index,
        dirty: delta.dirty,
        reused_components: delta.reused_components,
        touched,
        phases,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::figure1_refgraph;
    use crate::online::{QueryOptions, QueryPipeline};
    use crate::query::QueryGraph;
    use graphstore::{Label, RefId};

    fn assert_index_eq(a: &OfflineIndex, b: &OfflineIndex) {
        assert_eq!(a.paths.n_entries(), b.paths.n_entries());
        assert_eq!(a.paths.n_sequences(), b.paths.n_sequences());
    }

    #[test]
    fn mutate_equals_rebuild_on_figure1() {
        let builder = PegBuilder::new();
        let opts = OfflineOptions::with_len_and_beta(2, 0.05);
        let refs = figure1_refgraph();
        let peg = builder.build(&refs).unwrap();
        let index = OfflineIndex::build(&peg, &opts).unwrap();

        let ops = vec![
            GraphOp::UpsertRef { r: None, labels: vec![(0, 1.0)] },
            GraphOp::UpsertEdge { a: RefId(1), b: RefId(4), p: 0.7 },
            GraphOp::DeleteEdge { a: RefId(0), b: RefId(1) },
        ];
        let up = apply_ops(&builder, &opts, &refs, &peg, &index, &ops).unwrap();

        // Rebuild from scratch over the same mutated reference network.
        let fresh_peg = builder.build(&up.refs).unwrap();
        let fresh_index = OfflineIndex::build(&fresh_peg, &opts).unwrap();
        assert_eq!(up.peg.graph.n_nodes(), fresh_peg.graph.n_nodes());
        assert_eq!(up.peg.graph.n_edges(), fresh_peg.graph.n_edges());
        assert_index_eq(&up.index, &fresh_index);

        // Query results must be bit-exact between the two paths.
        let q = QueryGraph::path(&[Label(1), Label(0), Label(2)]).unwrap();
        let inc =
            QueryPipeline::new(&up.peg, &up.index).run(&q, 0.05, &QueryOptions::default()).unwrap();
        let frs = QueryPipeline::new(&fresh_peg, &fresh_index)
            .run(&q, 0.05, &QueryOptions::default())
            .unwrap();
        assert_eq!(inc.matches.len(), frs.matches.len());
        for (x, y) in inc.matches.iter().zip(&frs.matches) {
            assert_eq!(x.nodes, y.nodes);
            assert_eq!(x.prob().to_bits(), y.prob().to_bits());
        }
    }

    #[test]
    fn failed_batch_is_atomic() {
        let builder = PegBuilder::new();
        let opts = OfflineOptions::with_len_and_beta(2, 0.05);
        let refs = figure1_refgraph();
        let peg = builder.build(&refs).unwrap();
        let index = OfflineIndex::build(&peg, &opts).unwrap();
        let ops = vec![
            GraphOp::UpsertEdge { a: RefId(0), b: RefId(2), p: 0.4 },
            GraphOp::DeleteRef { r: RefId(99) }, // invalid
        ];
        let err = apply_ops(&builder, &opts, &refs, &peg, &index, &ops).unwrap_err();
        assert!(format!("{err}").contains("op 1"), "{err}");
        // Inputs untouched: original edge set unchanged.
        assert!(refs.edge_between(RefId(0), RefId(2)).is_none());
    }

    #[test]
    fn mismatched_options_are_refused_by_field() {
        let builder = PegBuilder::new();
        let opts = OfflineOptions::with_len_and_beta(2, 0.05);
        let refs = figure1_refgraph();
        let peg = builder.build(&refs).unwrap();
        let index = OfflineIndex::build(&peg, &opts).unwrap();
        let ops = vec![GraphOp::UpsertEdge { a: RefId(0), b: RefId(2), p: 0.4 }];

        let mut gamma = opts.clone();
        gamma.index.gamma = 0.25;
        let mut grid = opts.clone();
        grid.index.hist_grid.pop();
        for (field, bad) in [
            ("max_len", OfflineOptions::with_len_and_beta(3, 0.05)),
            ("beta", OfflineOptions::with_len_and_beta(2, 0.1)),
            ("gamma", gamma),
            ("hist_grid", grid),
        ] {
            let err = apply_ops(&builder, &bad, &refs, &peg, &index, &ops).unwrap_err();
            assert!(matches!(err, PegError::Invalid(_)), "{err}");
            assert!(format!("{err}").contains(&format!("opts.index.{field} ")), "{field}: {err}");
        }
        // The thread count is not part of what was indexed.
        let mut threads = opts.clone();
        threads.index.threads = 3;
        apply_ops(&builder, &threads, &refs, &peg, &index, &ops).unwrap();
    }

    #[test]
    fn delete_ref_removes_matches() {
        let builder = PegBuilder::new();
        let opts = OfflineOptions::with_len_and_beta(2, 0.05);
        let refs = figure1_refgraph();
        let peg = builder.build(&refs).unwrap();
        let index = OfflineIndex::build(&peg, &opts).unwrap();

        let q = QueryGraph::path(&[Label(1), Label(0), Label(2)]).unwrap();
        let before =
            QueryPipeline::new(&peg, &index).run(&q, 0.05, &QueryOptions::default()).unwrap();
        assert!(!before.matches.is_empty());

        // r2 ("a"-labelled, the hub) dies: every (r, a, i) match with it goes.
        let ops = vec![GraphOp::DeleteRef { r: RefId(1) }];
        let up = apply_ops(&builder, &opts, &refs, &peg, &index, &ops).unwrap();
        let after =
            QueryPipeline::new(&up.peg, &up.index).run(&q, 0.05, &QueryOptions::default()).unwrap();
        assert!(after.matches.is_empty());

        // And matches rebuilt-from-scratch agree.
        let fresh_peg = builder.build(&up.refs).unwrap();
        let fresh_index = OfflineIndex::build(&fresh_peg, &opts).unwrap();
        let frs = QueryPipeline::new(&fresh_peg, &fresh_index)
            .run(&q, 0.05, &QueryOptions::default())
            .unwrap();
        assert_eq!(after.matches.len(), frs.matches.len());
    }
}
