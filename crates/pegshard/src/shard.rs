//! One shard: an induced subgraph with halo replication, its projected
//! existence model, and its own offline index.
//!
//! A shard's node set is its *owned* entities (hash placement, see
//! [`crate::partition`]) plus every node within `halo = max_len + 1` hops
//! of an owned node. Two properties follow, and together they make
//! per-shard retrieval exact for every path the shard owns:
//!
//! * **path visibility** — any index path (≤ `max_len` edges) containing
//!   an owned node lies entirely within `max_len` hops of that node, so
//!   the shard sees all of its nodes and edges;
//! * **context exactness** — every node within `max_len` hops of an owned
//!   node has its *entire* 1-hop neighborhood inside the shard (radius
//!   `max_len + 1`), so the per-node context statistics (`c`, `ppu`,
//!   `fpu`) computed from the shard subgraph equal the full graph's
//!   bit-for-bit for every node a home path can touch.
//!
//! Node ids are renumbered **monotonically** (ascending global order), so
//! every id comparison the index builder makes — CSR neighbor order,
//! canonical-orientation tie-breaks, home-node selection by minimum id —
//! agrees with the full graph, and the existence model is *projected*
//! (components carried whole, see `ExistenceModel::project`), so stored
//! `Prle`/`Prn` values are bit-identical to the unsharded index's.

use crate::partition::shard_of;
use crate::wire::HistogramEntries;
use graphstore::{EntityGraph, EntityGraphBuilder, EntityId, UNREACHED};
use pathindex::PathMatches;
use pegmatch::error::PegError;
use pegmatch::offline::{OfflineIndex, OfflineOptions};
use pegmatch::online::candidates::{retrieve_candidates, Retrieval};
use pegmatch::online::{PathStats, QueryPath};
use pegmatch::query::QueryGraph;
use pegmatch::Peg;
use pegpool::ThreadPool;

/// Marker for global nodes absent from a shard.
const ABSENT: u32 = u32::MAX;

/// Replication radius for `n_shards` shards at indexed path length
/// `max_len`: `max_len + 1` hops (path visibility plus one hop of exact
/// context), except the degenerate single shard, which replicates
/// nothing. Both the in-process store and remote shard workers must use
/// this same rule or their partitions would disagree.
pub(crate) fn halo_for(n_shards: usize, max_len: usize) -> usize {
    if n_shards == 1 {
        0
    } else {
        max_len + 1
    }
}

/// Which shards a mutation can change. Shard `s`'s entire content — its
/// subgraph, projected existence slice, and offline index — is a function
/// of the ball of radius `halo` around the nodes it owns, so `s` is
/// affected iff some dirty node lies within `halo` hops of an owned node.
/// That membership is computed from the *dirty* side (`d ∈ ball(owned_s,
/// halo)` ⟺ `owned_s ∩ ball(d, halo) ≠ ∅` on an undirected graph): BFS
/// a radius-`halo` ball out of the dirty set and mark the owner of every
/// node reached. Balls are walked in **both** the old and new graphs —
/// a deleted edge shrinks the new ball but its old endpoints' shards
/// still held paths through it, and a fresh edge reaches shards the old
/// graph never could. Component-level existence changes are already
/// per-node dirty flags (`PegBuilder::rebuild` marks every member of a
/// non-reused component), so no component reasoning is needed here.
///
/// `dirty` is indexed by new-graph node id; the old graph's node set is
/// a prefix of the new one (creation-order ids, tombstoned deletions), so
/// nodes created by this batch are covered by the new graph's walk.
pub(crate) fn affected_shards(
    old: &EntityGraph,
    new: &EntityGraph,
    dirty: &[bool],
    n_shards: usize,
    halo: usize,
) -> Vec<bool> {
    let mut affected = vec![false; n_shards];
    for graph in [old, new] {
        let dist = graph.hop_distances(|v| dirty.get(v as usize).copied().unwrap_or(false), halo);
        for (v, _) in dist.iter().enumerate().filter(|(_, &d)| d != UNREACHED) {
            affected[shard_of(EntityId(v as u32), n_shards)] = true;
        }
    }
    affected
}

/// Per-shard size and ownership breakdown.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardInfo {
    /// Nodes in the shard subgraph (owned + replicated halo).
    pub nodes: usize,
    /// Nodes this shard owns.
    pub owned_nodes: usize,
    /// Edges in the shard subgraph.
    pub edges: usize,
    /// Path-index entries the shard stores.
    pub index_entries: usize,
    /// Approximate in-memory path-index bytes.
    pub index_bytes: u64,
}

/// What one shard reports to the store after a load or an update: the
/// body of the `shard_load` / `shard_update` replies (codec in
/// [`crate::wire`]) and, unencoded, what the in-process transport returns.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardSummary {
    /// Node count of the full graph the shard was cut from (a remote
    /// shard's is cross-checked against the coordinator's own graph).
    pub full_nodes: usize,
    /// Edge count of the full graph the shard was cut from.
    pub full_edges: usize,
    /// Size and ownership breakdown of the shard.
    pub info: ShardInfo,
    /// Home-only histogram counts: each stored path counted once, at its
    /// home shard, so the element-wise sum over all shards is the
    /// unsharded histogram exactly.
    pub hist: HistogramEntries,
    /// The shard snapshot version described (0 = as loaded).
    pub version: u64,
    /// Whether the load or update behind this summary built the shard —
    /// false when the dirty ball never reached it, and for a resend's ack.
    pub rebuilt: bool,
    /// Dirty-node count of the update's compiled delta (0 for a load and
    /// for an idempotent resend, which recompute nothing).
    pub n_dirty: usize,
}

/// One shard of a [`ShardedGraphStore`](crate::ShardedGraphStore).
pub struct Shard {
    /// The shard subgraph plus projected existence model.
    pub(crate) peg: Peg,
    /// The shard's own offline artifacts (path index + context).
    pub(crate) offline: OfflineIndex,
    /// Local node id → global node id; strictly increasing.
    pub(crate) to_global: Vec<u32>,
    /// Per local node: whether this shard owns it (vs. halo replication).
    pub(crate) owned: Vec<bool>,
}

impl Shard {
    /// Builds shard `shard` of `n_shards` over `full`, replicating to
    /// `halo` hops around owned nodes.
    pub(crate) fn build(
        full: &Peg,
        opts: &OfflineOptions,
        shard: usize,
        n_shards: usize,
        halo: usize,
    ) -> Result<Shard, PegError> {
        let graph = &full.graph;
        let n = graph.n_nodes();

        // The owned nodes and everything within `halo` hops of one, under
        // a monotone renumbering: ascending global ids.
        let depth = graph.hop_distances(|v| shard_of(EntityId(v), n_shards) == shard, halo);
        let to_global: Vec<u32> =
            (0..n as u32).filter(|&v| depth[v as usize] != UNREACHED).collect();
        let mut local_of: Vec<u32> = vec![ABSENT; n];
        for (i, &g) in to_global.iter().enumerate() {
            local_of[g as usize] = i as u32;
        }

        // Induced subgraph: every node payload verbatim, every edge whose
        // endpoints are both present, stored-orientation preserved (CPT
        // rows stay attached to the same endpoint).
        let mut builder = EntityGraphBuilder::new(graph.label_table().clone());
        for &g in &to_global {
            let node = graph.node(EntityId(g));
            builder.add_node(node.labels.clone(), node.refs.clone());
        }
        for e in graph.edges() {
            let (la, lb) = (local_of[e.a.idx()], local_of[e.b.idx()]);
            if la != ABSENT && lb != ABSENT {
                builder.add_edge(EntityId(la), EntityId(lb), e.prob.clone());
            }
        }
        let existence = full.existence.project(&to_global);
        let peg = Peg { graph: builder.build(), existence };
        let offline = OfflineIndex::build(&peg, opts)?;

        let owned: Vec<bool> =
            to_global.iter().map(|&g| shard_of(EntityId(g), n_shards) == shard).collect();
        Ok(Shard { peg, offline, to_global, owned })
    }

    /// Size and ownership breakdown.
    pub(crate) fn info(&self) -> ShardInfo {
        ShardInfo {
            nodes: self.peg.graph.n_nodes(),
            owned_nodes: self.owned.iter().filter(|&&o| o).count(),
            edges: self.peg.graph.n_edges(),
            index_entries: self.offline.paths.n_entries(),
            index_bytes: self.offline.paths.approx_bytes(),
        }
    }

    /// Home-only histogram counts (see [`ShardSummary::hist`]).
    pub(crate) fn histogram(&self) -> HistogramEntries {
        self.offline.paths.histogram_counts_where(&|sp| self.is_home(sp.nodes))
    }

    /// This shard as freshly built from `full`: version 0, `rebuilt`.
    /// Update paths overwrite the last three fields.
    pub(crate) fn summary(&self, full: &Peg) -> ShardSummary {
        ShardSummary {
            full_nodes: full.graph.n_nodes(),
            full_edges: full.graph.n_edges(),
            info: self.info(),
            hist: self.histogram(),
            version: 0,
            rebuilt: true,
            n_dirty: 0,
        }
    }

    /// True when this shard is the path's *home*: the path's minimum-id
    /// node is owned here. Minimum local id ↔ minimum global id under the
    /// monotone renumbering, so every shard (and the unsharded store)
    /// agrees on a path's unique home.
    #[inline]
    pub(crate) fn is_home(&self, local_nodes: &[u32]) -> bool {
        local_nodes.iter().min().is_some_and(|&i| self.owned[i as usize])
    }

    /// Rewrites every candidate from shard-local to global ids: one pass
    /// over the node arena. The renumbering is monotone, so rows sorted by
    /// local ids stay sorted.
    pub(crate) fn globalize(&self, matches: &mut PathMatches) {
        for v in matches.nodes_mut() {
            *v = self.to_global[*v as usize];
        }
    }

    /// The transport-independent unit of scatter work: retrieves and
    /// context-prunes every decomposition path of one request against this
    /// shard — the same [`retrieve_candidates`] the unsharded source runs —
    /// keeping only the paths this shard is **home** to, in canonical
    /// candidate order and globalized.
    ///
    /// Home-filtering at the shard is what makes the reply exact *and*
    /// minimal: the home shard reproduces the unsharded pruning decision
    /// for its paths (full halo visibility), while a non-home replica can
    /// only be *more* permissive (truncated context) — so anything it keeps
    /// is a path its home shard also keeps, and shipping it would only
    /// duplicate bytes the gather must drop. The union of home-filtered
    /// replies over all shards is therefore exactly the unsharded
    /// candidate list.
    pub(crate) fn retrieve_paths(
        &self,
        query: &QueryGraph,
        paths: &[QueryPath],
        pstats: &[PathStats],
        alpha: f64,
        pool: &ThreadPool,
        timed: bool,
    ) -> Vec<Retrieval> {
        let home = |row: &[u32]| self.is_home(row);
        let mut got = retrieve_candidates(
            &self.peg,
            &self.offline,
            query,
            paths,
            pstats,
            alpha,
            pool,
            Some(&home),
            timed,
        );
        for unit in &mut got {
            self.globalize(&mut unit.set.matches);
        }
        got
    }
}
