#![warn(missing_docs)]

//! `pegshard` — sharded entity-graph store with scatter-gather query
//! execution.
//!
//! Partitions one probabilistic entity graph into N shards, each owning
//! its own subgraph and path index, and runs the online pipeline's
//! candidate retrieval as a scatter-gather over them — with results
//! **f64-bit-identical** to the unsharded [`QueryPipeline`] at every shard
//! count. Sharding changes where retrieval work happens, never the math.
//!
//! # Partitioning and replication
//!
//! * **Placement** — entity `v` is *owned* by shard
//!   [`shard_of`]`(v, N)`, a pure deterministic hash (SplitMix64). No
//!   placement table, no coordination.
//! * **Replication rule** — each shard additionally holds every node
//!   within `max_len + 1` hops of an owned node (its *halo*), as an
//!   induced subgraph under a monotone (order-preserving) renumbering,
//!   with the existence model projected component-whole. `max_len` hops
//!   make every owned path fully visible; the extra hop makes the context
//!   statistics of every node an owned path can touch exact.
//! * **Home** — a path's home shard is the owner of its minimum-id node;
//!   exactly one shard is home to any path, and every shard agrees on it.
//!
//! # Why the gather is exact
//!
//! Per decomposition path, every shard retrieves and context-prunes from
//! its own index. A path's home shard reproduces the unsharded pipeline's
//! decision exactly (full visibility + exact context). Boundary shards
//! may see *replicas* of paths homed elsewhere; their truncated halos can
//! only **under**-state the context statistics, and every pruning bound is
//! monotone in them — so a replica is at most over-pruned, never kept when
//! the home shard (and therefore the unsharded pipeline) would prune it.
//! Stored probabilities (`Prle`, `Prn`) are bit-exact everywhere: `Prle`
//! is path-local and the monotone renumbering preserves every traversal
//! order, and `Prn` comes from projected existence components shared
//! verbatim with the full model. The gather therefore merge-sorts shard
//! contributions into the canonical candidate order and drops duplicate
//! node sequences — any surviving copy is the right one — yielding exactly
//! the unsharded candidate lists. Identical candidate lists + identical
//! plans (per-shard home-only histograms sum to the unsharded histogram,
//! so cost estimates match bit-for-bit) ⇒ identical k-partite reduction
//! and match generation on the full graph.
//!
//! # One shard unit, two transports
//!
//! Every shard is one [`WorkerShard`] ([`worker`]): built by
//! `Shard::build`, queried by its traced retrieve (a `"shard_retrieve"`
//! span over per-path `"path"` spans), updated by `apply_update` through
//! `live::batch_step`, and versioned by keeping its last two snapshots.
//! The store reaches its shards only through the five methods of
//! [`ShardTransport`] ([`transport`]): `n_shards`, `scatter` (each
//! shard's home-filtered candidate partials, which the store merges),
//! `update` (apply a mutation everywhere, answer with a successor
//! transport), `worker_stats` and `release`. A load and an update both
//! describe each resulting shard with one [`ShardSummary`], and the store
//! assembles itself from those, whichever transport produced them.
//! *Where* a shard lives is the transport's business:
//!
//! * [`InProcessTransport`] — the `WorkerShard`s in this process
//!   ([`ShardedGraphStore::build`]), called directly: shards and each
//!   shard's paths fanned out on the pool, an update applied to every
//!   shard at the next version. It is the transport's test double: on one
//!   machine sharding only costs replication (the pool already spreads
//!   the unsharded store's per-path work), so `pegserve` shards a graph
//!   only over workers.
//! * [`TcpTransport`] — one worker process per shard, reached over
//!   pooled blocking line-protocol connections (one exchange at a time
//!   each; concurrent scatters overlap on separate connections), one
//!   exchange routine that resends once on a fresh dial, and hard deadlines
//!   ([`ShardedGraphStore::connect`]). Workers build their `WorkerShard`
//!   deterministically from the generator spec and apply broadcast
//!   `shard_update` batches through it, so nothing
//!   but the spec, mutation ops, queries, summaries and
//!   `(nodes, prle, prn)` triples ever crosses the wire — bit-exactly:
//!   the triples as packed columns of verbatim `f64` bits, every other
//!   number on [`pegwire::json`]'s f64 round-trip guarantee (see [`wire`]
//!   for the codec and NaN policy).
//!
//! Because both transports run the identical per-shard unit and the
//! gather consumes only home-filtered triples plus two counts per shard,
//! distributed results are f64-bit-exact against the in-process store
//! *and* the unsharded pipeline, and the two stores' `explain` span trees
//! are equal. A lost worker surfaces as
//! [`PegError::ShardUnavailable`](pegmatch::error::PegError) within the
//! transport deadline — never a hang, never a silently partial answer.
//!
//! ```
//! use pegmatch::model::peg::{figure1_refgraph, PegBuilder};
//! use pegmatch::offline::OfflineOptions;
//! use pegmatch::online::QueryOptions;
//! use pegmatch::query::QueryGraph;
//! use graphstore::Label;
//! use pegshard::ShardedGraphStore;
//!
//! let refs = figure1_refgraph();
//! let peg = PegBuilder::new().build(&refs).unwrap();
//! let opts = OfflineOptions::with_len_and_beta(2, 0.01);
//! let store = ShardedGraphStore::build(&refs, peg, &opts, 3).unwrap();
//! let q = QueryGraph::path(&[Label(1), Label(0), Label(2)]).unwrap();
//! let res = store.pipeline().run(&q, 0.05, &QueryOptions::default()).unwrap();
//! assert!(!res.matches.is_empty());
//! ```
//!
//! [`QueryPipeline`]: pegmatch::online::QueryPipeline

pub mod partition;
mod shard;
mod store;
pub mod transport;
pub mod wire;
pub mod worker;

pub use partition::shard_of;
pub use shard::{ShardInfo, ShardSummary};
pub use store::{ScatterStats, ShardedGraphStore, ShardingStats};
pub use transport::{
    InProcessTransport, PathPartial, ShardReply, ShardRequest, ShardTransport, TcpTransport,
    TcpTransportConfig, TransportError, UpdateRequest, WorkerStats,
};
pub use worker::{ShardLeg, WorkerShard};
