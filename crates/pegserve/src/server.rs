//! The query server: `std::net` TCP, thread-per-connection, line-delimited
//! JSON.
//!
//! One [`Server`] owns any number of loaded graphs; each graph carries its
//! probabilistic entity graph, offline index, and one shared
//! [`PlanCache`] — the plan-cache/session seam the online pipeline was
//! layered for. A server-wide [`ExecCache`] (sized by
//! [`ServerConfig::exec_cache_bytes`], epoch-stamped per graph) addi-
//! tionally reuses reduced candidate graphs across repeated-shape query
//! mixes — a shape seen twice is cached at its floor threshold, and a hit
//! generates from that graph instead of retrieving (or, for a distributed
//! graph, scattering to the workers at all), joining and reducing; replies
//! stay bit-identical either way.
//!
//! The paper's online phase is one pipeline — decompose, retrieve,
//! join-candidates, reduce, generate — and the query ops are that
//! pipeline stopped early or run with more said about it: `prepare` ⊂
//! `query` ⊂ `explain` share one request type ([`proto::Query`], which a
//! `query_batch` lists and `query_topk` respells) and one executor
//! (`execute`), which passes the [`Admission`] semaphore, opens a fresh
//! `QuerySession` over the shared cacheable plan, and executes on the
//! persistent `pegpool` pool sized by the request's `threads` field.
//! Results are therefore bit-identical to a direct
//! [`QueryPipeline::run`] / `run_topk` with the same graph, threshold,
//! and thread count — the server adds sharing and scheduling, never
//! different math.
//!
//! # Protocol
//!
//! One JSON object per line in each direction. Requests carry an `"op"`
//! and are decoded + validated through the typed registry in
//! [`crate::proto`] — one decode path, no per-handler field parsing. Any
//! request may additionally carry `"v"`, the protocol version (currently
//! `1`): absent means the untagged pre-versioning contract, a known
//! version is echoed on the reply, and an unknown version is a
//! structured `bad_request` before the op is looked at.
//!
//! | op               | fields                                                            |
//! |------------------|-------------------------------------------------------------------|
//! | `ping`           | —                                                                 |
//! | `load_graph`     | `name?`, `kind` (`synthetic`/`dblp`/`imdb`), `size`, `seed?`, `uncertainty?`, `max_len?`, `beta?`, `workers?`, `worker_timeout_ms?` |
//! | `unload_graph`   | `graph` (required; `not_found` for unknown names)                 |
//! | `prepare`        | the `query` fields — plans without executing (`limit` has nothing to cap) |
//! | `query`          | `graph?`, `pattern`, `alpha?`, `limit?`, `threads?`, `debug_sleep_ms?` |
//! | `query_batch`    | `graph?`, `queries` (array of `{pattern, alpha?, limit?, debug_sleep_ms?}`), `threads?` |
//! | `query_topk`     | `graph?`, `pattern`, `k?`, `min_alpha?`, `threads?`, `debug_sleep_ms?` |
//! | `update_graph`   | `graph?`, `ops` (array of mutation ops — see [`crate::proto`])    |
//! | `explain`        | the `query` fields — query + plan summary + pipeline/scatter stats + full span tree |
//! | `stats`          | —                                                                 |
//! | `metrics`        | — (process metrics registry dump: counters + latency histograms)  |
//! | `shutdown`       | —                                                                 |
//! | `shard_load`     | `graph?`, generator spec (`kind`/`size`/`seed?`/`uncertainty?`/`max_len?`/`beta?`), `shard`, `n_shards` |
//! | `shard_retrieve` | `graph`, `alpha`, `labels`, `edges`, `paths`, `threads?`, `version?`, `trace_id?` (reply gains `span`) |
//! | `shard_update`   | `graph`, `version`, `ops`                                         |
//! | `shard_unload`   | `graph`                                                           |
//!
//! # Live graphs
//!
//! Every registered graph is **live**: it keeps the reference network it
//! was compiled from (`load_graph` builds from one, and
//! [`Server::insert_graph`] takes one beside the store), so
//! `update_graph` applies a mutation batch — upsert/delete entities,
//! edges, linkage evidence — to it, and the store is incrementally
//! recompiled with the index options it holds rather than rebuilt, with
//! replies afterwards **f64-bit-identical** to a from-scratch rebuild of
//! the mutated network. Each applied batch bumps the graph's mutation
//! `version` and retires its execution-cache epoch, so no cached plan or
//! retrieval from before the mutation can ever serve a query after it;
//! requests already executing keep the pre-mutation store (snapshot
//! semantics — an entry swap never changes results mid-flight). On a
//! distributed store the coordinator broadcasts `shard_update` and every
//! worker applies the same batch to the same effect — rebuilding its
//! shard only when the mutation's dirty set reaches its halo — keeping
//! the last two shard versions so in-flight scatters pinned to the old
//! version still answer. A failed or partially-applied
//! distributed update leaves the old store fully serviceable, and
//! retrying re-sends the same version, which workers that already hold it
//! acknowledge idempotently.
//!
//! # Request ids and reply order
//!
//! A connection's requests are answered **in the order they arrived**,
//! one at a time, on the connection's own handler thread: the next reply
//! line is always the answer to the oldest unanswered request line.
//! Concurrency comes from more connections — a client opens one per
//! thread, and the coordinator's shard transport ([`pegshard::TcpTransport`])
//! keeps idle connections per worker and overlaps concurrent scatters on
//! separate ones. Any request may carry a `u64` `"id"` field; the reply
//! echoes it verbatim (and `"v"` likewise). A request line that is not
//! UTF-8 is a structured `bad_request` and the connection stays open. A
//! handler that panics answers a structured `internal` error (id echoed)
//! instead of dropping the connection.
//!
//! `query_batch` ships many threshold queries in one line and one reply
//! and executes them, one after another, under **one** admission permit
//! (on a sharded graph each item scatters like a single `query` does).
//! Every per-query result is bit-identical to the same `query` sent
//! alone.
//!
//! `graph` may be omitted when exactly one graph is loaded. A graph is
//! sharded if and only if its `load_graph` names `workers: [addr, ...]`
//! (an embedder can still register an in-process
//! [`pegshard::ShardedGraphStore`] as a [`GraphStore::Sharded`] through
//! [`Server::insert_graph`]); a request still carrying the
//! retired `shards` field has it ignored like any unknown field. With
//! workers the graph goes **distributed**: each worker process (any
//! `pegserve` server, such as `pegcli serve` without `--kind`) receives a
//! `shard_load` with the same generator spec plus its `(shard, n_shards)`
//! assignment, rebuilds its shard deterministically as a
//! [`pegshard::WorkerShard`], and answers `shard_retrieve` scatters from
//! then on,
//! while planning, k-partite reduction, and match generation stay on the
//! coordinator — results remain bit-identical to the unsharded store's. A
//! worker lost mid-query yields a structured `shard_unavailable` reply
//! within the transport deadline (never a hang), and the coordinator
//! stays serviceable for its other graphs. `unload_graph` drops the named
//! graph and its plan cache (releasing worker connections and worker-side
//! shard state for distributed graphs) so long-lived servers reclaim
//! memory. Replies are
//! `{"ok":true,...}` or `{"ok":false,"error":CODE,"message":...}` with
//! codes `bad_request`, `unknown_graph`, `not_found`, `overloaded`,
//! `timeout`, `shard_unavailable`, `internal`. The query ops,
//! `load_graph`, `update_graph`, `shard_load`, `shard_retrieve` and
//! `shard_update` (the compute-occupying ops) pass admission; `load_graph`
//! additionally caps `size` at [`MAX_LOAD_SIZE`], `max_len` at
//! [`MAX_LOAD_PATH_LEN`], `workers` at [`MAX_LOAD_SHARDS`], and `beta` at
//! no less than [`MIN_LOAD_BETA`]; patterns are capped at
//! [`MAX_PATTERN_NODES`] nodes, per-query `threads` is clamped to the
//! machine's parallelism, request lines are capped at
//! [`MAX_LINE_BYTES`], and replies at [`MAX_RESULT_MATCHES`] matches.
//! `debug_sleep_ms` holds the admission permit while sleeping before
//! execution — an operational knob for exercising admission control
//! deterministically (tests, drills), not part of the query semantics —
//! and is honored only when [`ServerConfig::allow_debug_sleep`] is set.
//!
//! # Replies are written, not built
//!
//! A handler returns what it computed; the reply line is written after
//! it returns, once, into one `String`. The query-shaped ops write their
//! matches straight into a line pre-sized from the match count, through
//! `pegwire::json`'s own number and string writers — no `Json` value per
//! match. Every other op builds a small `Json` and renders it through
//! the same writers, so one `f64` formatter and one escaper produce every
//! byte. The `"v"` and then the `"id"` echo are appended before the
//! closing brace, and every reply — errors, the over-cap refusal and the
//! connection-limit refusal included — leaves in one `write_all`.
//! `serve.decode_us`, `serve.encode_us` and `serve.write_us` time the
//! three front-end steps around each op.

use crate::admission::{Admission, AdmitError};
use crate::json::{obj, Json};
use crate::proto::{self, ProtoError, QueryOp};
use crate::reply::{self, Answer, QueryReply, Reply};
use crate::statsjson;
use graphstore::{GraphOp, RefGraph};
use pegmatch::error::PegError;
use pegmatch::live::{self, UpdatePhases, UpdateStats};
use pegmatch::model::PegBuilder;
use pegmatch::offline::{OfflineIndex, OfflineOptions};
use pegmatch::online::session::TOPK_START_ALPHA;
use pegmatch::online::{
    ExecCache, PlanCache, QueryOptions, QueryPipeline, DEFAULT_EXEC_CACHE_BYTES,
};
use pegmatch::Peg;
use pegshard::{
    wire as shard_wire, ShardedGraphStore, TcpTransport, TcpTransportConfig, WorkerShard,
    WorkerStats,
};
use pegtrace::{Counter, Histogram, MetricsRegistry, Tracer};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// The protocol limits and the graph-spec decoder moved into [`crate::proto`]
// with the typed request structs; re-exported here because they are part of
// the server's public surface (docs and callers name them on `server`).
pub use crate::proto::{
    GraphSpec, MAX_LOAD_PATH_LEN, MAX_LOAD_SHARDS, MAX_LOAD_SIZE, MAX_PATTERN_NODES,
    MAX_QUERY_BATCH, MAX_RESULT_MATCHES, MIN_LOAD_BETA,
};

/// Server knobs. Admission bounds apply to `query` / `query_topk` /
/// `prepare` / `load_graph` — the ops that occupy compute.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Concurrent query sessions executing at once.
    pub max_sessions: usize,
    /// Requests allowed to wait for a session slot beyond `max_sessions`.
    pub queue_depth: usize,
    /// How long a queued request may wait before a `timeout` reply.
    pub deadline: Duration,
    /// Live connections (= handler threads) accepted at once. Connections
    /// past the bound get an `overloaded` reply and are closed — sockets
    /// and thread stacks are a resource like any other, and idle
    /// connections hold them without ever touching admission.
    pub max_connections: usize,
    /// Honor the `debug_sleep_ms` request field (admission-drill knob).
    /// Off by default: on a public endpoint it would let any client hold
    /// session permits doing zero work; requests carrying the field are
    /// rejected with `bad_request` unless this is set.
    pub allow_debug_sleep: bool,
    /// Byte budget for the server-wide execution cache (reduced
    /// k-partite graphs keyed by graph epoch + canonical shape + quantized
    /// floor threshold). `0` disables it.
    pub exec_cache_bytes: usize,
    /// Slow-query threshold: a query op whose execution (inside its
    /// admission permit) takes at least this many milliseconds is logged
    /// to stderr as one structured JSON line (`pegcli serve
    /// --slow-query-ms`). `None` disables the log.
    pub slow_query_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_sessions: 4,
            queue_depth: 16,
            deadline: Duration::from_secs(5),
            max_connections: 256,
            allow_debug_sleep: false,
            exec_cache_bytes: DEFAULT_EXEC_CACHE_BYTES,
            slow_query_ms: None,
        }
    }
}

/// How a loaded graph is stored: one offline index, or partitioned across
/// shards with scatter-gather retrieval. Both sit behind the same
/// [`PlanCache`]/`QuerySession` flow and answer bit-identically. Only this
/// type's own methods tell the two apart; the handlers call them.
pub enum GraphStore {
    /// The classic single store: one PEG, one offline index.
    Unsharded {
        /// The probabilistic entity graph.
        peg: Peg,
        /// Offline index (path index + context information).
        offline: OfflineIndex,
    },
    /// A sharded store: over workers (`load_graph` with `workers`), or
    /// in process ([`ShardedGraphStore::build`], registered through
    /// [`Server::insert_graph`]).
    Sharded(ShardedGraphStore),
}

impl GraphStore {
    /// The full entity graph (for pattern parsing and stats).
    pub fn peg(&self) -> &Peg {
        match self {
            GraphStore::Unsharded { peg, .. } => peg,
            GraphStore::Sharded(store) => store.peg(),
        }
    }

    /// A pipeline over this store.
    pub fn pipeline(&self) -> QueryPipeline<'_> {
        match self {
            GraphStore::Unsharded { peg, offline } => QueryPipeline::new(peg, offline),
            GraphStore::Sharded(store) => store.pipeline(),
        }
    }

    /// Shard count (1 for the unsharded store).
    pub fn n_shards(&self) -> usize {
        match self {
            GraphStore::Unsharded { .. } => 1,
            GraphStore::Sharded(store) => store.n_shards(),
        }
    }

    /// Applies a mutation batch to this store, compiled from `refs`,
    /// returning the successor store, the mutated reference network and
    /// what the batch touched; `self` is untouched. The successor is
    /// recompiled incrementally with the index options this store already
    /// holds, and is bit-identical to a from-scratch build of the mutated
    /// network with them.
    pub fn apply(
        &self,
        refs: &RefGraph,
        ops: &[GraphOp],
    ) -> Result<(GraphStore, RefGraph, UpdateStats), PegError> {
        let builder = PegBuilder::new();
        match self {
            GraphStore::Unsharded { peg, offline } => {
                let opts = OfflineOptions { index: offline.paths.config().clone() };
                let up = live::apply_ops(&builder, &opts, refs, peg, offline, ops)?;
                let stats = UpdateStats {
                    n_dirty: up.n_dirty(),
                    rebuilt_shards: 0,
                    reused_components: up.reused_components,
                    phases: up.phases,
                };
                Ok((GraphStore::Unsharded { peg: up.peg, offline: up.index }, up.refs, stats))
            }
            GraphStore::Sharded(store) => {
                let (next, refs, stats) = store.apply_update(refs, &builder, ops)?;
                Ok((GraphStore::Sharded(next), refs, stats))
            }
        }
    }

    /// Releases what the store holds outside this process: a distributed
    /// store tells its workers to drop their shards (best-effort) and
    /// closes its connections. Anything else is freed on drop.
    pub fn release(&self) {
        if let GraphStore::Sharded(store) = self {
            store.release_workers();
        }
    }

    /// Per-worker transport counters (`None` unless the store scatters
    /// over workers).
    pub fn worker_stats(&self) -> Option<Vec<WorkerStats>> {
        match self {
            GraphStore::Unsharded { .. } => None,
            GraphStore::Sharded(store) => store.worker_stats(),
        }
    }
}

/// One loaded graph: its store, the reference network the store was
/// compiled from, and the shared per-graph plan cache all sessions hit.
/// Dropping the entry (see `unload_graph`) drops the plan cache with it.
///
/// Entries are immutable snapshots: `update_graph` builds a *successor*
/// entry (new store, fresh plan cache, new epoch, `version + 1`) and
/// swaps it into the registry, so a request that already resolved this
/// entry finishes against exactly the graph it started on.
pub struct GraphEntry {
    /// Name the graph was registered under.
    pub name: String,
    /// The graph store (unsharded or sharded).
    pub store: GraphStore,
    /// Plan cache shared by every request against this graph. Plans cost
    /// against the store's histograms, so a mutation retires the whole
    /// cache along with the entry.
    pub plans: Arc<PlanCache>,
    /// Execution-cache epoch stamped at load (or at the mutation that
    /// produced this entry). Epochs are never reused, so unloading,
    /// reloading under the same name, or mutating makes every cached
    /// retrieval keyed by the old epoch unreachable — and the swap
    /// explicitly drops them.
    pub epoch: u64,
    /// The reference network the store was compiled from: what
    /// `update_graph` applies its batch to.
    refs: RefGraph,
    /// Mutation counter: 0 at load, bumped by every applied
    /// `update_graph`.
    version: u64,
    /// Serializes mutations per graph. Carried across entry swaps (the
    /// successor shares the `Arc`), so two concurrent `update_graph`s
    /// against any snapshot of the same graph still run one at a time.
    update_lock: Arc<Mutex<()>>,
}

impl GraphEntry {
    /// How many mutation batches produced this snapshot.
    pub fn version(&self) -> u64 {
        self.version
    }
}

struct ServerState {
    graphs: Mutex<HashMap<String, Arc<GraphEntry>>>,
    /// Shard-worker state: one shard per graph name, loaded by a
    /// coordinator's `shard_load`. Any server can act as a worker — the
    /// coordinator/worker distinction is which ops a peer sends, not a
    /// process mode.
    worker_shards: Mutex<HashMap<String, Arc<WorkerShard>>>,
    /// Server-wide execution cache shared by every graph (per-graph
    /// isolation comes from the epoch in every key); `None` when
    /// [`ServerConfig::exec_cache_bytes`] is 0.
    exec_cache: Option<Arc<ExecCache>>,
    admission: Admission,
    allow_debug_sleep: bool,
    max_connections: usize,
    shutdown: AtomicBool,
    /// This server's metrics registry (per instance, not process-global:
    /// tests and embedders run several servers in one process and each
    /// `metrics` reply must describe only its own). Dumped by the
    /// `metrics` op in [`statsjson::metrics_json`]'s schema.
    metrics: MetricsRegistry,
    /// What every query records, resolved out of `metrics` once.
    query_metrics: QueryMetrics,
    /// What every `update_graph` records, likewise.
    update_metrics: UpdateMetrics,
    /// What every answered request line records, likewise.
    front_metrics: FrontMetrics,
    /// Trace-id source for `explain` and any future traced op. A plain
    /// counter, not a random id: ids only need to be unique per server,
    /// and they must stay below 2^53 to survive the JSON number type.
    trace_ids: AtomicU64,
    /// Slow-query threshold ([`ServerConfig::slow_query_ms`]).
    slow_query: Option<Duration>,
    addr: SocketAddr,
}

/// A bound (not yet serving) query server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

/// Handle to a server running on a background thread.
pub struct ServerHandle {
    /// The bound address (resolves port 0).
    pub addr: SocketAddr,
    state: Arc<ServerState>,
    join: std::thread::JoinHandle<std::io::Result<()>>,
}

impl ServerHandle {
    /// Signals shutdown and joins the accept loop (idempotent with a
    /// protocol-level `shutdown` op).
    pub fn shutdown(self) -> std::io::Result<()> {
        request_shutdown(&self.state);
        self.join.join().expect("server thread panicked")
    }
}

fn request_shutdown(state: &ServerState) {
    state.shutdown.store(true, Ordering::SeqCst);
    // Wake the accept loop with a throwaway connection.
    let _ = TcpStream::connect(state.addr);
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port).
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let metrics = MetricsRegistry::new();
        let state = Arc::new(ServerState {
            graphs: Mutex::new(HashMap::new()),
            worker_shards: Mutex::new(HashMap::new()),
            exec_cache: (config.exec_cache_bytes > 0)
                .then(|| Arc::new(ExecCache::new(config.exec_cache_bytes))),
            admission: Admission::new(config.max_sessions, config.queue_depth, config.deadline),
            allow_debug_sleep: config.allow_debug_sleep,
            max_connections: config.max_connections.max(1),
            shutdown: AtomicBool::new(false),
            query_metrics: QueryMetrics::resolve(&metrics),
            update_metrics: UpdateMetrics::resolve(&metrics),
            front_metrics: FrontMetrics::resolve(&metrics),
            metrics,
            trace_ids: AtomicU64::new(1),
            slow_query: config.slow_query_ms.map(Duration::from_millis),
            addr,
        });
        Ok(Server { listener, state })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Registers a graph under `name` before (or while) serving — the
    /// embedding-side twin of the protocol's `load_graph`. `store` must
    /// have been compiled from exactly `refs`: `update_graph` applies its
    /// batches to `refs` and recompiles the store with the index options
    /// it holds, and the rebuild-equivalence guarantee is relative to
    /// them.
    pub fn insert_graph(&self, name: &str, refs: RefGraph, store: GraphStore) {
        insert_graph(&self.state, name, refs, store);
    }

    /// Builds and registers a graph from a generator spec — the
    /// wire's `load_graph`, callable: same build, same admission permit,
    /// same reply. A coordinator and its workers are only bit-exact if
    /// they build from the same [`GraphSpec`] mapper, so embedders that
    /// start from a spec (`pegcli serve --kind`) load through here. The
    /// decode-time ceilings ([`MAX_LOAD_SIZE`], ...) guard the wire, not
    /// this call.
    pub fn load_graph(&self, r: &proto::LoadGraph) -> Result<Json, ProtoError> {
        load_graph(&self.state, r)
    }

    /// Serves until a `shutdown` request (or [`ServerHandle::shutdown`]),
    /// one handler thread per connection: the accept loop reaps finished
    /// handlers and joins the rest before returning.
    pub fn serve(self) -> std::io::Result<()> {
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        for incoming in self.listener.incoming() {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match incoming {
                Ok(s) => s,
                Err(_) => {
                    // Persistent accept errors (e.g. fd exhaustion under
                    // load) must not busy-spin the accept thread.
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            };
            let state = self.state.clone();
            handlers.retain(|h| !h.is_finished());
            if handlers.len() >= self.state.max_connections {
                // Every handler slot is a live thread + socket; past the
                // bound, reply structured overload and close rather than
                // letting idle connections grow those resources unbounded.
                let _ = stream.set_nodelay(true);
                let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
                let overloaded = ProtoError::new("overloaded", "connection limit reached");
                write_reply(&stream, reply::error_line(&overloaded));
                continue;
            }
            handlers.push(std::thread::spawn(move || handle_connection(stream, &state)));
        }
        for h in handlers {
            let _ = h.join();
        }
        Ok(())
    }

    /// Starts serving on a background thread and returns a handle.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr();
        let state = self.state.clone();
        let join = std::thread::Builder::new()
            .name("pegserve-accept".into())
            .spawn(move || self.serve())
            .expect("spawn server thread");
        ServerHandle { addr, state, join }
    }
}

fn insert_graph(state: &ServerState, name: &str, refs: RefGraph, store: GraphStore) {
    let epoch = state.exec_cache.as_ref().map_or(0, |c| c.next_epoch());
    let entry = Arc::new(GraphEntry {
        name: name.to_string(),
        store,
        plans: Arc::new(PlanCache::new()),
        epoch,
        refs,
        version: 0,
        update_lock: Arc::new(Mutex::new(())),
    });
    let replaced = state.graphs.lock().unwrap().insert(name.to_string(), entry);
    // Reloading under the same name retires the old epoch: its cached
    // retrievals describe a graph no client can reach anymore.
    if let (Some(old), Some(cache)) = (replaced, &state.exec_cache) {
        cache.invalidate_epoch(old.epoch);
    }
}

/// The pipeline every request against `entry` executes on: the store's
/// candidate source, the graph's shared plan cache, and the server-wide
/// execution cache (stamped with the entry's epoch) when the server has
/// one.
fn graph_pipeline<'a>(state: &ServerState, entry: &'a GraphEntry) -> QueryPipeline<'a> {
    let pipe = entry.store.pipeline().with_plan_cache(entry.plans.clone());
    match &state.exec_cache {
        Some(cache) => pipe.with_exec_cache(Arc::clone(cache), entry.epoch),
        None => pipe,
    }
}

/// Per-request line cap: one connection cannot grow the server's memory
/// without bound by streaming bytes that never contain a newline.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// One framed reply write: the whole line (newline included) leaves in a
/// single `write_all` — one syscall per reply is the no-Nagle latency
/// contract.
fn write_reply(mut writer: &TcpStream, mut line: String) -> bool {
    line.push('\n');
    writer.write_all(line.as_bytes()).is_ok()
}

fn handle_connection(stream: TcpStream, state: &Arc<ServerState>) {
    // One reply per request line is the worst case for Nagle + delayed
    // ACK (a ~40ms stall per exchange on loopback): replies must leave
    // the socket immediately.
    let _ = stream.set_nodelay(true);
    // Poll for shutdown between requests: a blocked read wakes every 250ms
    // so idle connections notice a shutdown promptly. The write timeout
    // keeps a client that never drains its replies from pinning the
    // handler thread (and thereby the shutdown join) forever.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let mut reader = BufReader::new(stream);
    // Byte-level framing (not `read_line`): a read timeout firing inside a
    // multi-byte UTF-8 character must not drop the partial bytes, and a
    // `Vec<u8>` accumulator survives any split. UTF-8 is validated only
    // once a full line is framed.
    let mut buf: Vec<u8> = Vec::new();
    loop {
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let mut eof = false;
        // The cap must bound each read, not just be checked afterwards: an
        // unlimited `read_until` on a fast newline-free stream would never
        // return (and never time out), growing `buf` to OOM. Reading
        // through a `Take` of the remaining allowance makes the cap a hard
        // memory bound — the limit exhausting looks like EOF to
        // `read_until`. The cap counts the line without its newline, so
        // the allowance is the cap plus that one byte: a line at the cap
        // is read whole, and one over it fills `buf` one byte past the cap
        // without a newline.
        let allowance = (MAX_LINE_BYTES + 1 - buf.len()) as u64;
        match (&mut reader).take(allowance).read_until(b'\n', &mut buf) {
            Ok(0) => eof = true, // client closed (any accumulated tail still answers)
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Partial line: keep accumulating.
                continue;
            }
            Err(_) => break,
        }
        let complete = buf.ends_with(b"\n");
        if buf.len() - usize::from(complete) > MAX_LINE_BYTES {
            // Over the cap (the allowance ran out before a newline): the
            // stream cannot be resynchronized, so reply and close.
            let too_long = proto::bad("request line too long");
            write_reply(reader.get_ref(), reply::error_line(&too_long));
            break;
        }
        if !complete && !eof {
            // The socket yielded a short read without a newline; keep
            // accumulating until a newline, real EOF, or the cap trips.
            continue;
        }
        if let Some(line) = respond(state, &buf) {
            let writing = Instant::now();
            let sent = write_reply(reader.get_ref(), line);
            state.front_metrics.write.record(writing.elapsed());
            if !sent {
                break;
            }
        }
        buf.clear();
        if eof {
            break;
        }
    }
}

/// The reply line to one framed request line, on the connection's own
/// thread: a connection's requests are answered strictly in the order
/// they arrived. `None` for a blank line, which gets no reply. The line
/// must be UTF-8 — decoded lossily, a damaged byte would run as U+FFFD, a
/// request the client never sent.
fn respond(state: &ServerState, line: &[u8]) -> Option<String> {
    let mut clock = FrontClock::start(&state.front_metrics);
    let parsed = match std::str::from_utf8(line).map(str::trim) {
        Ok("") => return None,
        Ok(line) => parse_request(line),
        Err(_) => Err(proto::bad("request line is not valid UTF-8")),
    };
    let reply = match parsed {
        Ok((req, id)) => answer(&state.metrics, id, || dispatch_parsed(state, &req, &mut clock)),
        Err(e) => {
            clock.decoded();
            reply::error_line(&e)
        }
    };
    clock.encoded();
    Some(reply)
}

/// One request line's front-end stopwatch. The decode sample runs from
/// the line's arrival to [`FrontClock::decoded`]; the encode sample from
/// the handler's return ([`FrontClock::handled`]) — or from `decoded`,
/// when no handler ran — to [`FrontClock::encoded`], echoes included.
/// The handler's own time is its op's histogram, not the front end's.
struct FrontClock<'a> {
    front: &'a FrontMetrics,
    at: Instant,
}

impl<'a> FrontClock<'a> {
    fn start(front: &'a FrontMetrics) -> Self {
        Self { front, at: Instant::now() }
    }

    fn decoded(&mut self) {
        self.front.decode.record(self.at.elapsed());
        self.at = Instant::now();
    }

    fn handled(&mut self) {
        self.at = Instant::now();
    }

    fn encoded(&self) {
        self.front.encode.record(self.at.elapsed());
    }
}

/// Parses one request line and extracts its optional `"id"`. A present
/// but non-u64 id is rejected *without* an echo — there is no
/// trustworthy id to tag the error with.
fn parse_request(line: &str) -> Result<(Json, Option<u64>), ProtoError> {
    let req = Json::parse(line).map_err(|e| proto::bad(format!("malformed JSON: {e}")))?;
    let id = match req.get("id") {
        None | Some(Json::Null) => None,
        Some(v) => Some(
            v.as_u64()
                .ok_or_else(|| proto::bad("\"id\" must be an unsigned integer below 2^53"))?,
        ),
    };
    Ok((req, id))
}

/// Runs one request's handler, which returns its reply line, and echoes
/// the request's id onto it. A panic inside the handler is a bug in this
/// server, not in the request — but the caller is still owed a reply:
/// without one the connection would go down with a bare EOF, taking the
/// caller's later requests with it. So the panic is caught here, counted
/// in `serve.handler_panics`, and answered as a structured `internal`
/// error.
fn answer(metrics: &MetricsRegistry, id: Option<u64>, handler: impl FnOnce() -> String) -> String {
    let mut line = catch_unwind(AssertUnwindSafe(handler)).unwrap_or_else(|_| {
        metrics.counter("serve.handler_panics").incr();
        reply::error_line(&ProtoError::new("internal", "request handler panicked"))
    });
    reply::echo(&mut line, "id", id);
    line
}

/// Decodes a parsed request, runs its op and writes the reply line, the
/// validated version tag echoed.
fn dispatch_parsed(state: &ServerState, req: &Json, clock: &mut FrontClock) -> String {
    // The version tag gates everything: a request from a protocol this
    // server does not speak must not be half-interpreted.
    let decoded = proto::protocol_version(req).map(|v| (v, proto::Request::decode(req)));
    clock.decoded();
    let (v, result) = match decoded {
        Err(e) => return reply::error_line(&e),
        Ok((v, Err(e))) => (v, Err(e)),
        Ok((v, Ok(request))) => {
            let result = run(state, &request);
            clock.handled();
            (v, result)
        }
    };
    let mut line = reply::line(result);
    reply::echo(&mut line, "v", v);
    line
}

/// Runs a decoded request's handler.
fn run(state: &ServerState, request: &proto::Request) -> Result<Reply, ProtoError> {
    use proto::Request as R;
    let value = match request {
        R::Query(op, items) => return op_query(state, *op, items).map(Reply::Query),
        R::Ping => Ok(obj().field("ok", true).field("pong", true).build()),
        R::LoadGraph(r) => load_graph(state, r),
        R::UnloadGraph(name) => op_unload_graph(state, name),
        R::UpdateGraph(r) => op_update_graph(state, r),
        R::Stats => Ok(op_stats(state)),
        R::Metrics => Ok(obj()
            .field("ok", true)
            .field("metrics", statsjson::metrics_json(&state.metrics))
            .build()),
        R::ShardLoad(r) => op_shard_load(state, r),
        R::ShardRetrieve(r) => op_shard_retrieve(state, r),
        R::ShardUpdate(r) => op_shard_update(state, r),
        R::ShardUnload(name) => op_shard_unload(state, name),
        R::Shutdown => {
            request_shutdown(state);
            Ok(obj().field("ok", true).field("shutdown", true).build())
        }
    };
    value.map(Reply::Value)
}

fn resolve_graph(state: &ServerState, name: Option<&str>) -> Result<Arc<GraphEntry>, ProtoError> {
    let graphs = state.graphs.lock().unwrap();
    match name {
        Some(name) => graphs
            .get(name)
            .cloned()
            .ok_or_else(|| ProtoError::new("unknown_graph", format!("no graph named '{name}'"))),
        None if graphs.len() == 1 => Ok(graphs.values().next().unwrap().clone()),
        None if graphs.is_empty() => {
            Err(ProtoError::new("unknown_graph", "no graph loaded; send load_graph first"))
        }
        None => Err(proto::bad(format!("{} graphs loaded; specify \"graph\"", graphs.len()))),
    }
}

/// A pipeline error's protocol code: a lost shard worker is
/// `shard_unavailable` (retryable, operational), everything else a
/// client-side `bad_request`.
impl From<PegError> for ProtoError {
    fn from(e: PegError) -> ProtoError {
        match &e {
            PegError::ShardUnavailable { .. } => ProtoError::new("shard_unavailable", e),
            _ => proto::bad(e),
        }
    }
}

/// An admission rejection is `overloaded` or `timeout`.
impl From<AdmitError> for ProtoError {
    fn from(e: AdmitError) -> ProtoError {
        ProtoError::new(e.code(), e)
    }
}

/// Builds a graph + offline index from a `load_graph` request — the body
/// of the wire op and of [`Server::load_graph`] alike (the same
/// generator specs `pegcli` exposes; the registry-free environment has no
/// external data files to point at). The build runs *inside* an admission
/// permit — it occupies the shared compute pool like a query session does
/// — with `size` capped at [`MAX_LOAD_SIZE`], `max_len` at
/// [`MAX_LOAD_PATH_LEN`], and `beta` floored at [`MIN_LOAD_BETA`], so a
/// public endpoint cannot be driven to OOM or pool monopolization by one
/// request's build parameters.
///
/// A graph is sharded if and only if it names `workers: [addr, ...]`:
/// one shard per worker, loaded by forwarding the generator spec to each
/// worker and connected through a persistent [`TcpTransport`]. Without
/// workers it is one unsharded store. `worker_timeout_ms` bounds every
/// wire exchange with the workers (default 30s — it must also cover the
/// worker-side shard build triggered by the handshake).
fn load_graph(state: &ServerState, r: &proto::LoadGraph) -> Result<Json, ProtoError> {
    let name = r.name.clone();
    let _permit = state.admission.admit()?;
    let refs = r.spec.build_refs();
    let t0 = Instant::now();
    let peg = PegBuilder::new()
        .build(&refs)
        .map_err(|e| ProtoError::new("internal", format!("model build failed: {e}")))?;
    let opts = OfflineOptions { index: r.index.clone() };
    let (nodes, edges) = (peg.graph.n_nodes(), peg.graph.n_edges());
    let mut reply = obj()
        .field("ok", true)
        .field("graph", name.as_str())
        .field("nodes", nodes)
        .field("edges", edges)
        .field("shards", r.workers.len().max(1));
    let store = if r.workers.is_empty() {
        let offline = OfflineIndex::build(&peg, &opts)
            .map_err(|e| ProtoError::new("internal", format!("offline phase failed: {e}")))?;
        GraphStore::Unsharded { peg, offline }
    } else {
        let config = TcpTransportConfig { io_timeout: r.worker_timeout, ..Default::default() };
        let transport =
            TcpTransport::connect(&name, &r.workers, config).map_err(|e| e.into_peg())?;
        let load = |shard, n_shards| r.spec.shard_load_json(&name, &opts.index, shard, n_shards);
        let sharded = ShardedGraphStore::connect(peg, &opts, transport, load)?;
        let s = sharded.stats();
        reply = reply
            .field("workers", Json::Arr(r.workers.iter().map(|a| Json::Str(a.clone())).collect()))
            .field("replicated_nodes", s.replicated_nodes)
            .field("replication_factor", s.replication_factor);
        GraphStore::Sharded(sharded)
    };
    insert_graph(state, &name, refs, store);
    Ok(reply.field("build_us", t0.elapsed().as_micros() as u64).build())
}

/// Worker side of the distributed handshake: rebuilds one shard of the
/// spec's graph (same generator, same placement hash, same halo rule as
/// the coordinator would use in-process) and holds it for subsequent
/// `shard_retrieve` scatters. Spec and index knobs are bounded exactly
/// like `load_graph`'s — a worker is a public endpoint too.
fn op_shard_load(state: &ServerState, r: &proto::ShardLoad) -> Result<Json, ProtoError> {
    let _permit = state.admission.admit()?;
    let refs = r.spec.build_refs();
    let t0 = Instant::now();
    let peg = PegBuilder::new()
        .build(&refs)
        .map_err(|e| ProtoError::new("internal", format!("model build failed: {e}")))?;
    let opts = OfflineOptions { index: r.index.clone() };
    // The worker keeps the reference network: `shard_update` mutates it
    // and recompiles, so the coordinator never ships anything
    // graph-sized.
    let ws = WorkerShard::build(refs, peg, &opts, r.shard, r.n_shards)
        .map_err(|e| ProtoError::new("internal", format!("shard build failed: {e}")))?;
    let reply = obj()
        .field("ok", true)
        .field("graph", r.graph.as_str())
        .field("shard", r.shard)
        .field("n_shards", r.n_shards);
    let reply = shard_wire::encode_summary(reply, &ws.summary())
        .field("build_us", t0.elapsed().as_micros() as u64)
        .build();
    state.worker_shards.lock().unwrap().insert(r.graph.clone(), Arc::new(ws));
    Ok(reply)
}

/// Worker side of one scatter leg: run the shard's leg
/// ([`WorkerShard::retrieve_leg`]) over the worker's pool and encode the
/// home-filtered partials back. Compute-occupying, so it passes
/// admission like a query session. A request carrying the coordinator's
/// trace id gets the leg's `"shard_retrieve"` subtree back in the reply's
/// `"span"` field; the coordinator's transport grafts it into the live
/// request tree for an end-to-end distributed trace.
fn op_shard_retrieve(state: &ServerState, r: &proto::ShardRetrieve) -> Result<Json, ProtoError> {
    let ws = lookup_worker_shard(state, &r.graph)?;
    let _permit = state.admission.admit()?;
    let pool = pegpool::pool_with(r.threads);
    let leg = ws.retrieve_leg(&r.query, &r.paths, r.alpha, r.version, r.trace_id, &pool)?;
    state.query_metrics.shard_retrieve.record(leg.elapsed);
    let t_encode = Instant::now();
    let encoded = shard_wire::encode_retrieve_reply(&leg.reply);
    state.query_metrics.shard_reply_encode.record(t_encode.elapsed());
    state.query_metrics.shard_reply_bytes.record_us(shard_wire::reply_payload_bytes(&leg.reply));
    Ok(match leg.span {
        Some(node) => match encoded {
            Json::Obj(mut fields) => {
                fields.push(("span".to_string(), shard_wire::encode_span(&node)));
                Json::Obj(fields)
            }
            other => other,
        },
        None => encoded,
    })
}

fn lookup_worker_shard(state: &ServerState, name: &str) -> Result<Arc<WorkerShard>, ProtoError> {
    state
        .worker_shards
        .lock()
        .unwrap()
        .get(name)
        .cloned()
        .ok_or_else(|| ProtoError::new("unknown_graph", format!("no shard loaded for '{name}'")))
}

/// Worker side of a live-graph mutation: apply the batch to the held
/// reference network, recompile, and advance the shard to `version` —
/// rebuilding this shard's subgraph + index only when the mutation's
/// dirty set reaches its halo. The previous version is kept so scatters
/// pinned to it (a coordinator mid-query, or one that failed its update
/// broadcast partway) still answer; a resend of the already-latest
/// version is acknowledged idempotently (the transport may redial and
/// resend once). Compute-occupying, so it passes admission.
fn op_shard_update(state: &ServerState, r: &proto::ShardUpdate) -> Result<Json, ProtoError> {
    let ws = lookup_worker_shard(state, &r.graph)?;
    let _permit = state.admission.admit()?;
    let t0 = Instant::now();
    let summary = ws.apply_update(&r.ops, r.version)?;
    let reply = obj().field("ok", true).field("graph", r.graph.as_str());
    Ok(shard_wire::encode_summary(reply, &summary)
        .field("update_us", t0.elapsed().as_micros() as u64)
        .build())
}

/// Drops a worker's shard state for a graph (sent by the coordinator's
/// `unload_graph`).
fn op_shard_unload(state: &ServerState, name: &str) -> Result<Json, ProtoError> {
    match state.worker_shards.lock().unwrap().remove(name) {
        Some(ws) => Ok(obj()
            .field("ok", true)
            .field("unloaded", name)
            .field("shard", ws.shard_index())
            .build()),
        None => Err(ProtoError::new("not_found", format!("no shard loaded for '{name}'"))),
    }
}

/// Drops a loaded graph so a long-lived server can reclaim its memory:
/// the store (graph + index or shards) and the graph's plan cache go with
/// the entry once in-flight requests holding it finish. For a distributed
/// graph, the workers are released too — each gets a best-effort
/// `shard_unload` so it frees its shard state, and the persistent
/// connections close. Unknown names get a structured `not_found` reply.
/// `graph` is required — implicit resolution would make "unload the only
/// graph" too easy to do by accident from a script.
fn op_unload_graph(state: &ServerState, name: &str) -> Result<Json, ProtoError> {
    // Take the entry out under the lock, release workers *after* dropping
    // it: releasing a distributed graph's workers is blocking network I/O
    // (up to the worker deadline per socket operation), and holding the
    // server-wide graphs mutex through that would stall every request on
    // every other graph.
    let removed = state.graphs.lock().unwrap().remove(name);
    match removed {
        Some(entry) => {
            entry.store.release();
            // Drop the graph's cached retrievals now rather than letting
            // them age out: the epoch is never reissued, so the entries
            // are pure dead weight against the byte budget.
            if let Some(cache) = &state.exec_cache {
                cache.invalidate_epoch(entry.epoch);
            }
            Ok(obj()
                .field("ok", true)
                .field("unloaded", name)
                .field("shards", entry.store.n_shards())
                .build())
        }
        None => Err(ProtoError::new("not_found", format!("no graph named '{name}'"))),
    }
}

/// The mutation handler: applies a batch of graph ops to a graph and
/// swaps in an incrementally-recompiled successor entry.
///
/// Copy-on-write, not in-place: the resolved entry (and every store
/// snapshot an in-flight request holds) is never touched. The successor
/// gets the mutated store, a **fresh plan cache** (plans cost against
/// histograms the mutation changed), a **new execution-cache epoch**
/// (old-epoch retrievals become unreachable and are dropped eagerly),
/// and `version + 1`. Per-graph mutations serialize on a lock the
/// successor inherits; the swap itself re-checks that the registry still
/// holds exactly the entry the mutation was computed from, so racing an
/// `unload_graph`/`load_graph` aborts cleanly instead of resurrecting a
/// graph.
fn op_update_graph(state: &ServerState, r: &proto::UpdateGraph) -> Result<Json, ProtoError> {
    let resolved = resolve_graph(state, r.graph.as_deref())?;
    // Serialize with other mutations of this graph *by name*: the lock
    // Arc is carried across entry swaps, so holding it makes the
    // re-resolved entry below the newest — and the only — contender.
    let lock = Arc::clone(&resolved.update_lock);
    let waiting = Instant::now();
    let _mutations = lock.lock().unwrap();
    state.update_metrics.lock_wait.record(waiting.elapsed());
    let entry = resolve_graph(state, Some(resolved.name.as_str()))?;
    if !Arc::ptr_eq(&entry.update_lock, &lock) {
        // The graph was unloaded and reloaded while we waited: the held
        // lock no longer guards the current entry.
        return Err(proto::bad(format!(
            "graph '{}' was reloaded during the update; retry",
            entry.name
        )));
    }
    // A mutation recompiles on the shared pool — compute like a session.
    let _permit = state.admission.admit()?;
    let t0 = Instant::now();
    let (store, refs, stats) = entry.store.apply(&entry.refs, &r.ops)?;
    let (nodes, edges) = (store.peg().graph.n_nodes(), store.peg().graph.n_edges());
    let shards = store.n_shards();
    let epoch = state.exec_cache.as_ref().map_or(entry.epoch + 1, |c| c.next_epoch());
    let next = Arc::new(GraphEntry {
        name: entry.name.clone(),
        store,
        plans: Arc::new(PlanCache::new()),
        epoch,
        refs,
        version: entry.version + 1,
        update_lock: Arc::clone(&entry.update_lock),
    });
    {
        let mut graphs = state.graphs.lock().unwrap();
        match graphs.get(&entry.name) {
            Some(current) if Arc::ptr_eq(current, &entry) => {
                graphs.insert(entry.name.clone(), Arc::clone(&next));
            }
            // Unloaded (or replaced) while the mutation computed: do not
            // resurrect it — the unload already won.
            _ => {
                return Err(ProtoError::new(
                    "unknown_graph",
                    format!("graph '{}' was unloaded during the update", entry.name),
                ));
            }
        }
    }
    // Retire the pre-mutation epoch: no key can reach those retrievals
    // anymore (new entry, new epoch), so they are dead weight against
    // the cache budget. In-flight sessions on the old entry re-retrieve
    // on a miss — same math, same bits.
    if let Some(cache) = &state.exec_cache {
        cache.invalidate_epoch(entry.epoch);
    }
    // Release the previous generation here, timed: unless an in-flight
    // request still holds it, these are its last references, and its
    // graph, index and reference network are freed with them.
    let release = Instant::now();
    drop((resolved, entry));
    state.update_metrics.release.record(release.elapsed());
    // A phase that did not run (a sharded store's index and context
    // steps happen inside its shards) is zero: not recorded, not listed.
    let mut phases_us = obj();
    for ((name, took), hist) in stats.phases.named().into_iter().zip(&state.update_metrics.phases) {
        if !took.is_zero() {
            hist.record(took);
            phases_us = phases_us.field(name, took.as_micros() as u64);
        }
    }
    Ok(obj()
        .field("ok", true)
        .field("graph", next.name.as_str())
        .field("version", next.version)
        .field("epoch", next.epoch)
        .field("nodes", nodes)
        .field("edges", edges)
        .field("shards", shards)
        .field("n_ops", r.ops.len())
        .field("n_dirty", stats.n_dirty)
        .field("rebuilt_shards", stats.rebuilt_shards)
        .field("reused_components", stats.reused_components)
        .field("update_us", t0.elapsed().as_micros() as u64)
        .field("phases_us", phases_us.build())
        .build())
}

/// Everything that can refuse a query item without compute: its pattern
/// against the graph's label table, the pattern-size cap, and
/// `debug_sleep_ms` (an operational drill knob, not query semantics) on
/// a server that did not opt in.
fn check_item(
    state: &ServerState,
    entry: &GraphEntry,
    item: &proto::Query,
) -> Result<pegmatch::query::QueryGraph, ProtoError> {
    let labels = entry.store.peg().graph.label_table();
    let query = pegmatch::pattern::parse_pattern(&item.pattern, labels)
        .map_err(|e| proto::bad(format!("bad pattern: {e}")))?;
    if query.n_nodes() > proto::MAX_PATTERN_NODES {
        return Err(proto::bad(format!(
            "pattern has {} nodes, limit is {}",
            query.n_nodes(),
            proto::MAX_PATTERN_NODES
        )));
    }
    if item.debug_sleep_ms.is_some() && !state.allow_debug_sleep {
        return Err(proto::bad(
            "debug_sleep_ms requires the server's allow_debug_sleep knob (pegcli serve --debug-sleep)",
        ));
    }
    Ok(query)
}

/// Handles on everything a query records, resolved out of the registry
/// once so the per-query cost is atomic bumps, not name lookups. The
/// `pipeline.*_us` phase histograms are always on: where a query's time
/// went, for every query served, not only the ones sent as `explain`.
struct QueryMetrics {
    queries: Counter,
    slow_queries: Counter,
    /// `serve.<op>_us`, indexed by `QueryOp as usize`.
    op_us: [Histogram; 5],
    admission_wait: Histogram,
    shard_retrieve: Histogram,
    shard_reply_encode: Histogram,
    /// A size, not a time: the histogram's `_us` readout fields are bytes.
    shard_reply_bytes: Histogram,
    prepare: Histogram,
    retrieve: Histogram,
    join: Histogram,
    reduce: Histogram,
    generate: Histogram,
}

impl QueryMetrics {
    fn resolve(metrics: &MetricsRegistry) -> Self {
        Self {
            queries: metrics.counter("serve.queries"),
            slow_queries: metrics.counter("serve.slow_queries"),
            op_us: QueryOp::ALL.map(|op| metrics.histogram(&format!("serve.{}_us", op.name()))),
            admission_wait: metrics.histogram("serve.admission_wait_us"),
            shard_retrieve: metrics.histogram("serve.shard_retrieve_us"),
            shard_reply_encode: metrics.histogram("serve.shard_reply_encode_us"),
            shard_reply_bytes: metrics.histogram("serve.shard_reply_bytes"),
            prepare: metrics.histogram("pipeline.prepare_us"),
            retrieve: metrics.histogram("pipeline.retrieve_us"),
            join: metrics.histogram("pipeline.join_us"),
            reduce: metrics.histogram("pipeline.reduce_us"),
            generate: metrics.histogram("pipeline.generate_us"),
        }
    }
}

/// The front end's share of every request line [`respond`] answers, one
/// sample each, resolved once like [`QueryMetrics`]: `serve.decode_us`
/// (the UTF-8 check, `Json::parse` and `Request::decode`),
/// `serve.encode_us` (the handler's result turned into the reply line,
/// echoes included) and `serve.write_us` (the one `write_all`). With
/// `serve.admission_wait_us` and the op's own histogram they name where a
/// request's server-side time went.
struct FrontMetrics {
    decode: Histogram,
    encode: Histogram,
    write: Histogram,
}

impl FrontMetrics {
    fn resolve(metrics: &MetricsRegistry) -> Self {
        Self {
            decode: metrics.histogram("serve.decode_us"),
            encode: metrics.histogram("serve.encode_us"),
            write: metrics.histogram("serve.write_us"),
        }
    }
}

/// Handles on what every `update_graph` records, resolved once like
/// [`QueryMetrics`]: the wait for the graph's mutation lock, the release
/// of the previous generation after the swap, and one `live.<phase>_us`
/// histogram per [`UpdatePhases`] step, in its order — always on, so
/// where a batch's time went is read off `metrics`.
struct UpdateMetrics {
    lock_wait: Histogram,
    release: Histogram,
    phases: [Histogram; 9],
}

impl UpdateMetrics {
    fn resolve(metrics: &MetricsRegistry) -> Self {
        Self {
            lock_wait: metrics.histogram("serve.update_lock_wait_us"),
            release: metrics.histogram("serve.update_release_us"),
            phases: UpdatePhases::default()
                .named()
                .map(|(name, _)| metrics.histogram(&format!("live.{name}_us"))),
        }
    }
}

/// The one executor of the query-shaped ops: resolve the graph, check
/// every item (before the permit, a batch naming the offender), take
/// **one** admission permit, then per item plan and — unless the op is
/// `prepare` — run a fresh session over the shared plan, and note the
/// query.
///
/// Everything is timed by the spans it opens into `tracer`: a
/// `"request"` root, `"prepare"` and the session's stage spans under it.
/// Disabled (every op but `explain`), the same stages still time
/// themselves, so replies, `PipelineStats` and the always-on histograms
/// read the clocks an `explain` tree would show. All of that tree but
/// its `elapsed_us` values and the `trace_id` is a deterministic function
/// of the request (`tests/trace_determinism.rs`).
///
/// Returns the resolved graph, one [`Answer`] per item in order, and the
/// `"request"` span's time: planning + execution of every item, inside
/// the permit.
fn execute(
    state: &ServerState,
    op: QueryOp,
    items: &[proto::Query],
    tracer: &Tracer,
) -> Result<(Arc<GraphEntry>, Vec<Answer>, Duration), ProtoError> {
    // Decode guarantees at least one item; a batch's all carry its graph.
    let head = &items[0];
    let entry = resolve_graph(state, head.graph.as_deref())?;
    let mut queries = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        queries.push(check_item(state, &entry, item).map_err(|e| match op {
            QueryOp::Batch => ProtoError::new(e.code, format!("queries[{i}]: {}", e.message)),
            _ => e,
        })?);
    }
    let queued = Instant::now();
    let permit = state.admission.admit()?;
    state.query_metrics.admission_wait.record(queued.elapsed());
    let sleep_ms: u64 = items.iter().filter_map(|item| item.debug_sleep_ms).sum();
    if sleep_ms > 0 {
        std::thread::sleep(Duration::from_millis(sleep_ms.min(60_000)));
    }
    let pipe = graph_pipeline(state, &entry);
    let request = tracer.stage("request");
    request.tag("op", op.name());
    request.tag("graph", entry.name.as_str());
    request.tag("alpha", head.alpha);
    request.tag("shards", entry.store.n_shards());
    let stages = request.tracer();
    let mut answers = Vec::with_capacity(items.len());
    for (item, query) in items.iter().zip(&queries) {
        let opts = QueryOptions { threads: item.threads, ..Default::default() };
        // A plan answers any threshold; `alpha` only seeds its cost model.
        let plan_alpha = if op == QueryOp::Topk { TOPK_START_ALPHA } else { item.alpha };
        let prepared = pipe.prepare_traced(query, plan_alpha, &opts, &stages)?;
        let result = if op == QueryOp::Prepare {
            None
        } else {
            let mut session = pipe.session(&prepared, &opts);
            session.set_tracer(stages.clone());
            let run = match op {
                QueryOp::Topk => session.run_topk(item.limit, item.alpha),
                _ => session.run_at(item.alpha, Some(item.limit)),
            };
            Some(run?)
        };
        answers.push(Answer { prepared, result });
    }
    let elapsed = request.finish();
    drop(permit);
    note_query(state, op, &entry.name, items, &answers, elapsed);
    Ok((entry, answers, elapsed))
}

/// Per-request bookkeeping shared by every query-shaped op: bumps the
/// served counter, records the op's latency histogram and each answered
/// query's phase times, and — when the server has a slow-query threshold
/// and this request crossed it — writes one structured JSON line to
/// stderr, so an operator can grep offenders out of a server log without
/// any proportional overhead on the fast path.
fn note_query(
    state: &ServerState,
    op: QueryOp,
    graph: &str,
    items: &[proto::Query],
    answers: &[Answer],
    elapsed: Duration,
) {
    let m = &state.query_metrics;
    let mut n_matches = 0usize;
    for answer in answers {
        m.prepare.record(answer.prepared.decompose_time());
        if let Some(result) = &answer.result {
            m.queries.incr();
            // Only stages that ran leave a sample: an execution-cache hit
            // retrieved, joined and reduced nothing.
            let s = &result.stats;
            if !s.exec_cache_hit {
                m.retrieve.record(s.candidates_time);
                m.join.record(s.join_time);
                m.reduce.record(s.reduction_time);
            }
            m.generate.record(result.stats.generation_time);
            n_matches += result.matches.len();
        }
    }
    m.op_us[op as usize].record(elapsed);
    if let Some(threshold) = state.slow_query.filter(|t| elapsed >= *t) {
        m.slow_queries.incr();
        let (pattern, alpha) = match op {
            QueryOp::Batch => (format!("[{} queries]", items.len()), 0.0),
            _ => (items[0].pattern.clone(), items[0].alpha),
        };
        let line = obj()
            .field("slow_query", true)
            .field("op", op.name())
            .field("graph", graph)
            .field("pattern", pattern)
            .field("alpha", alpha)
            .field("elapsed_us", elapsed.as_micros() as u64)
            .field("threshold_ms", threshold.as_millis() as u64)
            .field("n", n_matches)
            .build();
        eprintln!("{line}");
    }
}

/// The one handler of the query-shaped ops: [`execute`] with the tracer
/// on for `explain` only, then the answers the reply writer turns into
/// the op's line. A `query_batch` reply lists one result per item — each
/// bit-identical to the same `query` sent alone — and fails whole-batch:
/// results are not useful if their siblings silently vanished.
fn op_query(
    state: &ServerState,
    op: QueryOp,
    items: &[proto::Query],
) -> Result<QueryReply, ProtoError> {
    let trace_id =
        (op == QueryOp::Explain).then(|| state.trace_ids.fetch_add(1, Ordering::Relaxed));
    let tracer = trace_id.map_or_else(Tracer::disabled, Tracer::enabled);
    let (entry, answers, elapsed) = execute(state, op, items, &tracer)?;
    let trace = trace_id
        .map(|id| (id, tracer.take().pop().expect("execute closed the request span it opened")));
    Ok(QueryReply { op, graph: entry.name.clone(), answers, elapsed, trace })
}

#[cfg(test)]
impl Server {
    /// One query-shaped op, executed as its request line would be, before
    /// its reply is written: what the reply writer's tests write from.
    pub(crate) fn query_reply(
        &self,
        op: QueryOp,
        items: &[proto::Query],
    ) -> Result<QueryReply, ProtoError> {
        op_query(&self.state, op, items)
    }
}

fn op_stats(state: &ServerState) -> Json {
    // Clone the entry Arcs out and drop the map lock before touching any
    // store: the graphs mutex is the server-wide hot lock and must never
    // be held across per-graph work.
    let mut entries: Vec<Arc<GraphEntry>> = {
        let graphs = state.graphs.lock().unwrap();
        graphs.values().cloned().collect()
    };
    entries.sort_by(|a, b| a.name.cmp(&b.name));
    let graph_stats: Vec<Json> = entries
        .iter()
        .map(|g| {
            let p = g.plans.stats();
            // Distributed graphs report their per-worker transport
            // counters — rendered by the one shared schema helper, the
            // same one pegcli's pretty printer reads.
            let workers = g.store.worker_stats().map(|ws| statsjson::workers_json(&ws));
            // Per-graph execution-cache residency: how much of the
            // server-wide budget this graph's epoch currently holds.
            let exec: Option<Json> = state.exec_cache.as_ref().map(|cache| {
                let (entries, bytes) = cache.epoch_stats(g.epoch);
                obj()
                    .field("epoch", g.epoch)
                    .field("entries", entries)
                    .field("bytes", bytes)
                    .build()
            });
            obj()
                .field("name", g.name.as_str())
                .field("nodes", g.store.peg().graph.n_nodes())
                .field("edges", g.store.peg().graph.n_edges())
                .field("shards", g.store.n_shards())
                .field("version", g.version)
                .field_opt("workers", workers)
                .field(
                    "plan_cache",
                    obj()
                        .field("hits", p.hits)
                        .field("misses", p.misses)
                        .field("entries", p.entries)
                        .field("evictions", p.evictions)
                        .field("hit_rate", p.hit_rate())
                        .field("saved_us", p.saved.as_micros() as u64)
                        .build(),
                )
                .field_opt("exec_cache", exec)
                .build()
        })
        .collect();
    let exec_cache: Option<Json> = state.exec_cache.as_ref().map(|cache| {
        let s = cache.stats();
        obj()
            .field("hits", s.hits)
            .field("misses", s.misses)
            .field("first_sight", s.first_sight)
            .field("admitted", s.admitted)
            .field("evictions", s.evictions)
            .field("hit_rate", s.hit_rate())
            .field("entries", s.entries)
            .field("bytes", s.bytes)
            .field("budget", s.budget)
            .build()
    });
    obj()
        .field("ok", true)
        .field("queries_served", state.query_metrics.queries.get())
        .field("graphs", Json::Arr(graph_stats))
        .field_opt("exec_cache", exec_cache)
        .field("admission", statsjson::admission_json(&state.admission, state.admission.stats()))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use pathindex::PathIndexConfig;

    fn tiny_server(config: ServerConfig) -> (ServerHandle, Client) {
        let server = Server::bind("127.0.0.1:0", config).unwrap();
        let refs = datagen::synthetic_refgraph(&datagen::SyntheticConfig::paper_with_uncertainty(
            200, 0.2,
        ));
        let peg = PegBuilder::new().build(&refs).unwrap();
        let opts = OfflineOptions {
            index: PathIndexConfig { max_len: 2, beta: 0.3, ..Default::default() },
        };
        let offline = OfflineIndex::build(&peg, &opts).unwrap();
        server.insert_graph("tiny", refs, GraphStore::Unsharded { peg, offline });
        let handle = server.spawn();
        let client = Client::connect(handle.addr).unwrap();
        (handle, client)
    }

    #[test]
    fn ping_query_and_stats_round_trip() {
        let (handle, mut client) = tiny_server(ServerConfig::default());
        let pong = client.request(&Json::parse(r#"{"op":"ping"}"#).unwrap()).unwrap();
        assert_eq!(pong.get("ok"), Some(&Json::Bool(true)));

        let reply = client
            .request(
                &Json::parse(r#"{"op":"query","pattern":"(x:l0)-(y:l1)","alpha":0.3}"#).unwrap(),
            )
            .unwrap();
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
        let n = reply.get("n").unwrap().as_usize().unwrap();
        assert_eq!(reply.get("matches").unwrap().as_arr().unwrap().len(), n);
        assert_eq!(reply.get("plan_from_cache"), Some(&Json::Bool(false)));

        // The isomorphic renumbering hits the shared plan cache.
        let reply = client
            .request(
                &Json::parse(r#"{"op":"query","pattern":"(a:l1)-(b:l0)","alpha":0.3}"#).unwrap(),
            )
            .unwrap();
        assert_eq!(reply.get("plan_from_cache"), Some(&Json::Bool(true)), "{reply}");

        let stats = client.request(&Json::parse(r#"{"op":"stats"}"#).unwrap()).unwrap();
        assert_eq!(stats.get("queries_served").unwrap().as_u64(), Some(2));
        let graphs = stats.get("graphs").unwrap().as_arr().unwrap();
        assert_eq!(graphs.len(), 1);
        assert_eq!(graphs[0].get("plan_cache").unwrap().get("hits").unwrap().as_u64(), Some(1));
        assert_eq!(stats.get("admission").unwrap().get("admitted").unwrap().as_u64(), Some(2));
        assert_eq!(handle.state.metrics.histogram("pipeline.join_us").count(), 2);

        // `prepare` plans without executing; this shape is already cached.
        let reply = client
            .request(
                &Json::parse(r#"{"op":"prepare","pattern":"(x:l0)-(y:l1)","alpha":0.3}"#).unwrap(),
            )
            .unwrap();
        assert_eq!(reply.get("from_cache"), Some(&Json::Bool(true)), "{reply}");

        let bye = client.request(&Json::parse(r#"{"op":"shutdown"}"#).unwrap()).unwrap();
        assert_eq!(bye.get("ok"), Some(&Json::Bool(true)));
        handle.shutdown().unwrap();
    }

    #[test]
    fn protocol_errors_are_structured() {
        let (handle, mut client) = tiny_server(ServerConfig::default());
        let bad = client.request_line("this is not json").unwrap();
        assert!(bad.contains("\"error\":\"bad_request\""), "{bad}");
        let reply = client.request(&Json::parse(r#"{"op":"warp"}"#).unwrap()).unwrap();
        assert_eq!(reply.get("error").and_then(Json::as_str), Some("bad_request"));
        let reply = client
            .request(&Json::parse(r#"{"op":"query","graph":"nope","pattern":"(x:l0)"}"#).unwrap())
            .unwrap();
        assert_eq!(reply.get("error").and_then(Json::as_str), Some("unknown_graph"));
        let reply = client
            .request(&Json::parse(r#"{"op":"query","pattern":"(x:nosuch)"}"#).unwrap())
            .unwrap();
        assert_eq!(reply.get("error").and_then(Json::as_str), Some("bad_request"));
        // Field-level rejections: each is a structured `bad_request`, the
        // message naming the offender where there is one to name.
        let too_many_workers = format!(
            r#"{{"op":"load_graph","kind":"synthetic","size":100,"workers":[{}]}}"#,
            vec![r#""127.0.0.1:1""#; MAX_LOAD_SHARDS + 1].join(",")
        );
        for (line, names) in [
            (too_many_workers.as_str(), "workers"),
            (r#"{"op":"query","pattern":"(x:l0)","alpha":"high"}"#, "alpha"),
            (r#"{"op":"query","pattern":"(x:l0)","id":1.5}"#, "id"),
            (r#"{"op":"query"}"#, "pattern"),
            (r#"{"op":"query_batch","queries":[]}"#, "queries"),
            (
                r#"{"op":"query_batch","queries":[{"pattern":"(x:l0)"},{"pattern":"(x:bad"}]}"#,
                "queries[1]",
            ),
            (r#"{"op":"query","debug_sleep_ms":5,"pattern":"(x:l0)"}"#, "allow_debug_sleep"),
            (
                r#"{"op":"load_graph","kind":"synthetic","size":100,"worker_timeout_ms":0}"#,
                "worker_timeout_ms",
            ),
            (
                r#"{"op":"load_graph","kind":"synthetic","size":100,"worker_timeout_ms":600001}"#,
                "worker_timeout_ms",
            ),
        ] {
            let reply = client.request(&Json::parse(line).unwrap()).unwrap();
            assert_eq!(
                reply.get("error").and_then(Json::as_str),
                Some("bad_request"),
                "{line}: {reply}"
            );
            let message = reply.get("message").and_then(Json::as_str).unwrap();
            assert!(message.contains(names), "{line}: {reply}");
            // The fractional id cannot be echoed as it came, so it is not
            // echoed at all (no other line carries one).
            assert!(reply.get("id").is_none(), "{line}: {reply}");
        }
        // One decoder, one executor: a malformed threshold query is
        // refused in the same words under every op that carries one (a
        // batch adding only its item prefix).
        let mut refusal = |line: String| {
            let reply = client.request(&Json::parse(&line).unwrap()).unwrap();
            assert_eq!(
                reply.get("error").and_then(Json::as_str),
                Some("bad_request"),
                "{line}: {reply}"
            );
            reply.get("message").and_then(Json::as_str).unwrap().to_string()
        };
        for body in [
            r#""pattern":"(x:l0)","alpha":"high""#,
            r#""alpha":0.5"#,
            r#""pattern":"(x:l0)","limit":-1"#,
            r#""pattern":"(x:l0)","debug_sleep_ms":5"#,
        ] {
            let want = refusal(format!(r#"{{"op":"query",{body}}}"#));
            for op in ["prepare", "explain"] {
                assert_eq!(refusal(format!(r#"{{"op":"{op}",{body}}}"#)), want, "{op} {body}");
            }
            assert_eq!(
                refusal(format!(r#"{{"op":"query_batch","queries":[{{{body}}}]}}"#)),
                format!("queries[0]: {want}"),
                "{body}"
            );
        }
        handle.shutdown().unwrap();
    }

    #[test]
    fn oversized_threads_and_load_size_are_bounded() {
        let (handle, mut client) = tiny_server(ServerConfig::default());
        // A huge "threads" is clamped to the machine's parallelism, not
        // turned into a million-thread pool.
        let reply = client
            .request(
                &Json::parse(
                    r#"{"op":"query","pattern":"(x:l0)-(y:l1)","alpha":0.3,"threads":1000000}"#,
                )
                .unwrap(),
            )
            .unwrap();
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
        // load_graph over the ceilings is rejected before any build work:
        // size, path length, and pruning threshold are each bounded.
        for bad in [
            r#"{"op":"load_graph","kind":"synthetic","size":999999999}"#,
            r#"{"op":"load_graph","kind":"synthetic","size":100,"max_len":12}"#,
            r#"{"op":"load_graph","kind":"synthetic","size":100,"beta":0}"#,
        ] {
            let reply = client.request(&Json::parse(bad).unwrap()).unwrap();
            assert_eq!(
                reply.get("error").and_then(Json::as_str),
                Some("bad_request"),
                "{bad}: {reply}"
            );
        }
        // Replies are capped: a permissive threshold query cannot
        // materialize more than MAX_RESULT_MATCHES matches, and an
        // explicit limit above the cap is clamped the same way.
        let reply = client
            .request(
                &Json::parse(
                    r#"{"op":"query","pattern":"(x:l0)","alpha":0.0001,"limit":99999999}"#,
                )
                .unwrap(),
            )
            .unwrap();
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
        assert!(reply.get("n").unwrap().as_usize().unwrap() <= MAX_RESULT_MATCHES, "{reply}");
        handle.shutdown().unwrap();
    }

    #[test]
    fn slow_partial_request_lines_survive_the_read_timeout() {
        use std::io::{BufRead, BufReader, Write};
        let (handle, _client) = tiny_server(ServerConfig::default());
        // Write a request in two fragments with a gap longer than the
        // server's 250ms poll timeout; the partial first fragment must be
        // kept, not discarded.
        let mut stream = std::net::TcpStream::connect(handle.addr).unwrap();
        stream.write_all(br#"{"op":"query","pattern":"#).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(600));
        stream.write_all(b"\"(x:l0)-(y:l1)\",\"alpha\":0.3}\n").unwrap();
        stream.flush().unwrap();
        let mut reply = String::new();
        BufReader::new(stream).read_line(&mut reply).unwrap();
        let reply = Json::parse(reply.trim()).unwrap();
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
        handle.shutdown().unwrap();
    }

    #[test]
    fn connection_limit_rejects_with_structured_reply() {
        let (handle, mut first) =
            tiny_server(ServerConfig { max_connections: 1, ..ServerConfig::default() });
        // The first connection owns the only handler slot.
        let pong = first.request(&Json::parse(r#"{"op":"ping"}"#).unwrap()).unwrap();
        assert_eq!(pong.get("ok"), Some(&Json::Bool(true)));
        // A second connection is told it's over the limit and closed.
        let mut second = Client::connect(handle.addr).unwrap();
        let reply = second.request_line(r#"{"op":"ping"}"#);
        // The server may instead close the socket before our write lands
        // (an Err) — either way no handler was granted, which is the bound.
        if let Ok(line) = reply {
            assert!(line.contains("\"error\":\"overloaded\""), "{line}");
        }
        // The first connection keeps working.
        let pong = first.request(&Json::parse(r#"{"op":"ping"}"#).unwrap()).unwrap();
        assert_eq!(pong.get("ok"), Some(&Json::Bool(true)));
        handle.shutdown().unwrap();
    }

    /// `n` empty servers to act as shard workers.
    fn spawn_workers(n: usize) -> Vec<ServerHandle> {
        (0..n)
            .map(|_| Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap().spawn())
            .collect()
    }

    /// A `load_graph` of the 200-reference synthetic graph as `name`,
    /// sharded over `workers` (none: unsharded).
    fn load_request(name: &str, workers: &[ServerHandle]) -> Json {
        let addrs = workers.iter().map(|w| Json::Str(w.addr.to_string())).collect();
        obj()
            .field("op", "load_graph")
            .field("name", name)
            .field("kind", "synthetic")
            .field("size", 200usize)
            .field("max_len", 2usize)
            .field_opt("workers", (!workers.is_empty()).then_some(Json::Arr(addrs)))
            .build()
    }

    fn shutdown_all(handles: Vec<ServerHandle>) {
        for h in handles {
            h.shutdown().unwrap();
        }
    }

    #[test]
    fn sharded_load_graph_round_trip() {
        // A graph is sharded if and only if its load names workers: one
        // shard each.
        let workers = spawn_workers(3);
        let (handle, mut client) = tiny_server(ServerConfig::default());
        let reply = client.request(&load_request("sh", &workers)).unwrap();
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
        assert_eq!(reply.get("shards").and_then(Json::as_usize), Some(3));
        assert!(reply.get("replication_factor").unwrap().as_f64().unwrap() >= 1.0);
        // Queries flow through the same plan-cache/session path.
        let reply = client
            .request(
                &Json::parse(
                    r#"{"op":"query","graph":"sh","pattern":"(x:l0)-(y:l1)","alpha":0.3}"#,
                )
                .unwrap(),
            )
            .unwrap();
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
        let reply = client
            .request(
                &Json::parse(
                    r#"{"op":"query","graph":"sh","pattern":"(a:l1)-(b:l0)","alpha":0.3}"#,
                )
                .unwrap(),
            )
            .unwrap();
        assert_eq!(reply.get("plan_from_cache"), Some(&Json::Bool(true)), "{reply}");
        // Stats report the shard count.
        let stats = client.request(&Json::parse(r#"{"op":"stats"}"#).unwrap()).unwrap();
        let graphs = stats.get("graphs").unwrap().as_arr().unwrap();
        let sh = graphs
            .iter()
            .find(|g| g.get("name").and_then(Json::as_str) == Some("sh"))
            .expect("sharded graph listed");
        assert_eq!(sh.get("shards").and_then(Json::as_usize), Some(3));
        // The retired `shards` field is ignored like any unknown field:
        // without workers the graph is one unsharded store.
        let reply = client
            .request(
                &Json::parse(
                    r#"{"op":"load_graph","name":"flat","kind":"synthetic","size":100,"max_len":1,"shards":3}"#,
                )
                .unwrap(),
            )
            .unwrap();
        assert_eq!(reply.get("shards").and_then(Json::as_usize), Some(1), "{reply}");
        assert!(reply.get("replication_factor").is_none(), "{reply}");
        handle.shutdown().unwrap();
        shutdown_all(workers);
    }

    #[test]
    fn unload_graph_drops_entry_and_reports_not_found() {
        let (handle, mut client) = tiny_server(ServerConfig::default());
        let reply = client
            .request(
                &Json::parse(r#"{"op":"load_graph","name":"scratch","kind":"synthetic","size":120,"max_len":1}"#)
                    .unwrap(),
            )
            .unwrap();
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
        let reply = client
            .request(&Json::parse(r#"{"op":"unload_graph","graph":"scratch"}"#).unwrap())
            .unwrap();
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
        assert_eq!(reply.get("unloaded").and_then(Json::as_str), Some("scratch"));
        // The graph is gone for queries...
        let reply = client
            .request(
                &Json::parse(r#"{"op":"query","graph":"scratch","pattern":"(x:l0)"}"#).unwrap(),
            )
            .unwrap();
        assert_eq!(reply.get("error").and_then(Json::as_str), Some("unknown_graph"));
        // ...and a second unload (or any unknown name) is a structured
        // not_found, distinguishable from transport failure in scripts.
        let reply = client
            .request(&Json::parse(r#"{"op":"unload_graph","graph":"scratch"}"#).unwrap())
            .unwrap();
        assert_eq!(reply.get("error").and_then(Json::as_str), Some("not_found"), "{reply}");
        // The op requires an explicit name.
        let reply = client.request(&Json::parse(r#"{"op":"unload_graph"}"#).unwrap()).unwrap();
        assert_eq!(reply.get("error").and_then(Json::as_str), Some("bad_request"));
        // The preloaded graph is untouched.
        let reply = client
            .request(&Json::parse(r#"{"op":"query","graph":"tiny","pattern":"(x:l0)"}"#).unwrap())
            .unwrap();
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
        handle.shutdown().unwrap();
    }

    #[test]
    fn worker_ops_round_trip_and_validate() {
        // Any server can act as a shard worker: shard_load builds one
        // shard from the spec, shard_retrieve answers scatters,
        // shard_unload frees it.
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let handle = server.spawn();
        let mut client = Client::connect(handle.addr).unwrap();
        let reply = client
            .request(
                &Json::parse(
                    r#"{"op":"shard_load","graph":"w","kind":"synthetic","size":200,"max_len":2,"beta":0.3,"shard":1,"n_shards":2}"#,
                )
                .unwrap(),
            )
            .unwrap();
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
        assert_eq!(reply.get("shard").and_then(Json::as_usize), Some(1));
        // The reply body is the coordinator's summary format (histogram
        // included), at the freshly loaded version.
        let summary = shard_wire::decode_summary(&reply, 0).expect("shard_load reply decodes");
        assert!(summary.full_nodes > 0);
        assert!(summary.info.owned_nodes <= summary.info.nodes);

        let reply = client
            .request(
                &Json::parse(
                    r#"{"op":"shard_retrieve","graph":"w","alpha":0.3,"labels":[0,1],"edges":[[0,1]],"paths":[[0,1]]}"#,
                )
                .unwrap(),
            )
            .unwrap();
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
        let paths = reply.get("paths").unwrap().as_arr().unwrap();
        assert_eq!(paths.len(), 1);
        assert!(paths[0].get("raw_total").unwrap().as_usize().is_some());

        // Malformed scatter requests are structured bad_request replies.
        for bad in [
            r#"{"op":"shard_retrieve","graph":"w","alpha":2.0,"labels":[0],"edges":[],"paths":[[0]]}"#,
            r#"{"op":"shard_retrieve","graph":"w","alpha":0.5,"labels":[0],"edges":[],"paths":[[9]]}"#,
            r#"{"op":"shard_retrieve","graph":"nope","alpha":0.5,"labels":[0],"edges":[],"paths":[[0]]}"#,
            r#"{"op":"shard_load","kind":"synthetic","size":100,"shard":5,"n_shards":2}"#,
        ] {
            let reply = client.request(&Json::parse(bad).unwrap()).unwrap();
            assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "{bad}: {reply}");
        }

        let reply =
            client.request(&Json::parse(r#"{"op":"shard_unload","graph":"w"}"#).unwrap()).unwrap();
        assert_eq!(reply.get("unloaded").and_then(Json::as_str), Some("w"), "{reply}");
        let reply =
            client.request(&Json::parse(r#"{"op":"shard_unload","graph":"w"}"#).unwrap()).unwrap();
        assert_eq!(reply.get("error").and_then(Json::as_str), Some("not_found"), "{reply}");
        handle.shutdown().unwrap();
    }

    /// A worker indexed at `max_len` 2 answers decomposition paths of at
    /// most 3 query nodes, each node once. A longer path, or one that
    /// repeats a node, is a structured error before any lookup (at α < β
    /// either would enumerate with no length bound). The requests run at
    /// α ≥ β, so a worker that accepted them would still answer.
    #[test]
    fn a_path_no_plan_can_produce_is_refused() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let handle = server.spawn();
        let mut client = Client::connect(handle.addr).unwrap();
        let load = r#"{"op":"shard_load","graph":"w","kind":"synthetic","size":200,"max_len":2,"beta":0.3,"shard":0,"n_shards":2}"#;
        let reply = client.request(&Json::parse(load).unwrap()).unwrap();
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
        let retrieve = |paths: &str| {
            format!(
                r#"{{"op":"shard_retrieve","graph":"w","alpha":0.5,"labels":[0,1,0,1,0],"edges":[[0,1],[1,2],[2,3],[3,4]],"paths":{paths}}}"#
            )
        };
        let reply = client.request(&Json::parse(&retrieve("[[0,1,2]]")).unwrap()).unwrap();
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
        for (paths, why) in [("[[0,1,2,3,4]]", "at most 3"), ("[[0,1,0]]", "repeats")] {
            let reply = client.request(&Json::parse(&retrieve(paths)).unwrap()).unwrap();
            assert_eq!(reply.get("error").and_then(Json::as_str), Some("bad_request"), "{reply}");
            let message = reply.get("message").and_then(Json::as_str).unwrap_or_default();
            assert!(message.contains(why), "{paths}: {reply}");
        }
        handle.shutdown().unwrap();
    }

    #[test]
    fn load_graph_over_the_wire() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let handle = server.spawn();
        let mut client = Client::connect(handle.addr).unwrap();
        // No graph yet.
        let reply =
            client.request(&Json::parse(r#"{"op":"query","pattern":"(x:l0)"}"#).unwrap()).unwrap();
        assert_eq!(reply.get("error").and_then(Json::as_str), Some("unknown_graph"));
        let reply = client
            .request(
                &Json::parse(r#"{"op":"load_graph","kind":"synthetic","size":150,"max_len":1}"#)
                    .unwrap(),
            )
            .unwrap();
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
        assert!(reply.get("nodes").unwrap().as_u64().unwrap() > 0);
        let reply = client
            .request(
                &Json::parse(r#"{"op":"query","pattern":"(x:l0)-(y:l1)","alpha":0.4}"#).unwrap(),
            )
            .unwrap();
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
        handle.shutdown().unwrap();
    }

    #[test]
    fn request_ids_echo_on_success_and_error() {
        let (handle, mut client) = tiny_server(ServerConfig::default());
        // Success replies echo the id verbatim.
        let reply = client
            .request(
                &Json::parse(r#"{"op":"query","pattern":"(x:l0)-(y:l1)","alpha":0.3,"id":7}"#)
                    .unwrap(),
            )
            .unwrap();
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
        assert_eq!(reply.get("id").and_then(Json::as_u64), Some(7), "{reply}");
        // Error replies echo it too: every reply can be checked against
        // the request it answers.
        let reply = client.request(&Json::parse(r#"{"op":"warp","id":8}"#).unwrap()).unwrap();
        assert_eq!(reply.get("error").and_then(Json::as_str), Some("bad_request"), "{reply}");
        assert_eq!(reply.get("id").and_then(Json::as_u64), Some(8), "{reply}");
        // A non-integer id cannot be echoed as it came: structured
        // rejection *without* an echo.
        for bad in
            [r#"{"op":"ping","id":1.5}"#, r#"{"op":"ping","id":-3}"#, r#"{"op":"ping","id":"x"}"#]
        {
            let reply = client.request(&Json::parse(bad).unwrap()).unwrap();
            assert_eq!(reply.get("error").and_then(Json::as_str), Some("bad_request"), "{reply}");
            assert!(reply.get("id").is_none(), "{bad}: {reply}");
        }
        // A request without an id gets a reply without one.
        let reply = client.request(&Json::parse(r#"{"op":"ping"}"#).unwrap()).unwrap();
        assert!(reply.get("id").is_none(), "{reply}");
        handle.shutdown().unwrap();
    }

    /// A raw connection to `addr` and a reader of its reply lines.
    fn raw_connection(addr: SocketAddr) -> (TcpStream, impl FnMut() -> Json) {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let read_reply = move || {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            Json::parse(line.trim()).unwrap()
        };
        (stream, read_reply)
    }

    #[test]
    fn id_requests_answer_in_send_order_within_a_connection() {
        let (handle, client) =
            tiny_server(ServerConfig { allow_debug_sleep: true, ..Default::default() });
        drop(client);
        // Pipeline a slow id'd query and a fast id'd ping in one write:
        // the ping waits its turn, and each reply carries its own id.
        let (mut stream, mut read_reply) = raw_connection(handle.addr);
        stream
            .write_all(
                concat!(
                    r#"{"op":"query","pattern":"(x:l0)-(y:l1)","alpha":0.3,"debug_sleep_ms":300,"id":1}"#,
                    "\n",
                    r#"{"op":"ping","id":2}"#,
                    "\n",
                )
                .as_bytes(),
            )
            .unwrap();
        let (first, second) = (read_reply(), read_reply());
        assert!(first.get("matches").is_some(), "the query must answer first: {first}");
        assert_eq!(first.get("id").and_then(Json::as_u64), Some(1), "{first}");
        assert_eq!(second.get("pong"), Some(&Json::Bool(true)), "{second}");
        assert_eq!(second.get("id").and_then(Json::as_u64), Some(2), "{second}");
        drop(stream);
        handle.shutdown().unwrap();
    }

    #[test]
    fn request_lines_must_be_utf8() {
        let (handle, _client) = tiny_server(ServerConfig::default());
        let (mut stream, mut read_reply) = raw_connection(handle.addr);
        // Each line is valid JSON but for one byte. Decoded lossily, the
        // first would answer pong and the second would look up a graph
        // named "defaul\u{FFFD}" — requests nobody sent.
        for line in [
            &b"{\"op\":\"ping\",\"note\":\"caf\xE9\"}\n"[..],
            b"{\"op\":\"unload_graph\",\"graph\":\"defaul\xE9\"}\n",
        ] {
            stream.write_all(line).unwrap();
            let reply = read_reply();
            assert_eq!(reply.get("error").and_then(Json::as_str), Some("bad_request"), "{reply}");
            let message = reply.get("message").and_then(Json::as_str).unwrap();
            assert_eq!(message, "request line is not valid UTF-8", "{reply}");
        }
        // The connection stays open and in step.
        stream.write_all(b"{\"op\":\"ping\"}\n").unwrap();
        assert_eq!(read_reply().get("pong"), Some(&Json::Bool(true)));
        drop(stream);
        handle.shutdown().unwrap();
    }

    #[test]
    fn the_line_cap_counts_the_line_without_its_newline() {
        let (handle, _client) = tiny_server(ServerConfig::default());
        let (mut stream, mut read_reply) = raw_connection(handle.addr);
        // A ping padded to exactly `len` bytes before its newline.
        let ping = |len: usize| {
            let (head, tail) = (r#"{"op":"ping","pad":""#, "\"}\n");
            format!("{head}{}{tail}", "x".repeat(len - head.len() - (tail.len() - 1)))
        };
        let at_cap = ping(MAX_LINE_BYTES);
        assert_eq!(at_cap.len(), MAX_LINE_BYTES + 1);
        stream.write_all(at_cap.as_bytes()).unwrap();
        assert_eq!(read_reply().get("pong"), Some(&Json::Bool(true)));
        // One byte over: one structured refusal, then the connection
        // closes (the rest of the line cannot be resynchronized).
        stream.write_all(ping(MAX_LINE_BYTES + 1).as_bytes()).unwrap();
        let reply = read_reply();
        assert_eq!(reply.get("error").and_then(Json::as_str), Some("bad_request"), "{reply}");
        assert_eq!(reply.get("message").and_then(Json::as_str), Some("request line too long"));
        let mut rest = Vec::new();
        // The server may close with the line's newline still unread, which
        // resets rather than ends the stream: either way, nothing follows.
        if let Ok(n) = stream.read_to_end(&mut rest) {
            assert_eq!(n, 0, "no second reply");
        }
        drop(stream);
        handle.shutdown().unwrap();
    }

    #[test]
    fn a_panicking_handler_answers_internal_and_is_counted() {
        let metrics = MetricsRegistry::new();
        let reply = Json::parse(&answer(&metrics, Some(5), || panic!("handler bug"))).unwrap();
        assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "{reply}");
        assert_eq!(reply.get("error").and_then(Json::as_str), Some("internal"), "{reply}");
        assert_eq!(reply.get("id").and_then(Json::as_u64), Some(5), "{reply}");
        let reply = Json::parse(&answer(&metrics, None, || panic!("handler bug"))).unwrap();
        assert_eq!(reply.get("error").and_then(Json::as_str), Some("internal"), "{reply}");
        assert!(reply.get("id").is_none(), "{reply}");
        assert_eq!(metrics.counter("serve.handler_panics").get(), 2);
        // A handler that returns is passed through untouched and uncounted.
        let reply = answer(&metrics, Some(6), || obj().field("ok", true).build().to_string());
        assert_eq!(reply, r#"{"ok":true,"id":6}"#);
        assert_eq!(metrics.counter("serve.handler_panics").get(), 2);
    }

    #[test]
    fn front_end_histograms_sample_every_answered_line() {
        let (handle, _client) = tiny_server(ServerConfig::default());
        let (mut stream, mut read_reply) = raw_connection(handle.addr);
        // A query, a line that is not JSON, a blank line (no reply), an
        // unknown version and a ping: four answered lines.
        stream
            .write_all(
                concat!(
                    r#"{"op":"query","pattern":"(x:l0)-(y:l1)","alpha":0.3}"#,
                    "\nnot json\n\n",
                    r#"{"op":"ping","v":9}"#,
                    "\n",
                    r#"{"op":"ping"}"#,
                    "\n",
                )
                .as_bytes(),
            )
            .unwrap();
        for _ in 0..4 {
            read_reply();
        }
        drop(stream);
        // The write sample is taken after the reply left: read the
        // registry once the handler threads are joined.
        let state = Arc::clone(&handle.state);
        handle.shutdown().unwrap();
        for name in ["serve.decode_us", "serve.encode_us", "serve.write_us"] {
            assert_eq!(state.metrics.histogram(name).count(), 4, "{name}");
        }
    }

    #[test]
    fn query_batch_matches_individual_queries_bit_exactly() {
        let (handle, mut client) = tiny_server(ServerConfig::default());
        let patterns = ["(x:l0)-(y:l1)", "(a:l1)-(b:l0)", "(x:l0)-(y:l1)-(z:l0)"];
        let individual: Vec<Json> = patterns
            .iter()
            .map(|p| {
                let reply = client
                    .request(
                        &obj()
                            .field("op", "query")
                            .field("pattern", *p)
                            .field("alpha", 0.3)
                            .build(),
                    )
                    .unwrap();
                assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
                reply.get("matches").unwrap().clone()
            })
            .collect();
        let items: Vec<Json> = patterns
            .iter()
            .map(|p| obj().field("pattern", *p).field("alpha", 0.3).build())
            .collect();
        let reply = client
            .request(&obj().field("op", "query_batch").field("queries", Json::Arr(items)).build())
            .unwrap();
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
        assert_eq!(reply.get("n").and_then(Json::as_usize), Some(patterns.len()), "{reply}");
        let results = reply.get("results").unwrap().as_arr().unwrap();
        for (i, want) in individual.iter().enumerate() {
            assert_eq!(
                results[i].get("matches"),
                Some(want),
                "batch item {i} must match the lone query bit for bit"
            );
        }
        // Admission charges the batch once but the query counter sees
        // every item.
        let stats = client.request(&Json::parse(r#"{"op":"stats"}"#).unwrap()).unwrap();
        assert_eq!(stats.get("queries_served").unwrap().as_u64(), Some(6), "{stats}");
        assert_eq!(
            stats.get("admission").unwrap().get("admitted").unwrap().as_u64(),
            Some(4),
            "{stats}"
        );

        // A bad item fails the whole batch, naming the offender.
        let items = vec![
            obj().field("pattern", "(x:l0)").build(),
            obj().field("pattern", "(x:nosuch)").build(),
        ];
        let reply = client
            .request(&obj().field("op", "query_batch").field("queries", Json::Arr(items)).build())
            .unwrap();
        assert_eq!(reply.get("error").and_then(Json::as_str), Some("bad_request"), "{reply}");
        assert!(
            reply.get("message").and_then(Json::as_str).unwrap().contains("queries[1]"),
            "{reply}"
        );
        // Size bounds: empty and past MAX_QUERY_BATCH are both refused.
        for n in [0usize, MAX_QUERY_BATCH + 1] {
            let items: Vec<Json> =
                (0..n).map(|_| obj().field("pattern", "(x:l0)").build()).collect();
            let reply = client
                .request(
                    &obj().field("op", "query_batch").field("queries", Json::Arr(items)).build(),
                )
                .unwrap();
            assert_eq!(reply.get("error").and_then(Json::as_str), Some("bad_request"), "{reply}");
        }
        handle.shutdown().unwrap();
    }

    #[test]
    fn exec_cache_reuses_repeated_shapes_bit_identically() {
        let (h_on, mut on) = tiny_server(ServerConfig::default());
        let (h_off, mut off) =
            tiny_server(ServerConfig { exec_cache_bytes: 0, ..Default::default() });
        // Warm hits must reproduce the uncached server's replies bit for
        // bit (matches carry f64s; the in-tree JSON round trip is
        // bit-exact). The first query is a first sight and the second
        // admits the shape. Alphas 0.3 and 0.35 share a quantization
        // bucket (both floor to the same key), so the 0.35 query generates
        // from the cached base in place, above its floor.
        for q in [
            r#"{"op":"query","pattern":"(x:l0)-(y:l1)","alpha":0.3}"#,
            r#"{"op":"query","pattern":"(x:l0)-(y:l1)","alpha":0.3}"#,
            r#"{"op":"query","pattern":"(x:l0)-(y:l1)","alpha":0.3}"#,
            r#"{"op":"query","pattern":"(x:l0)-(y:l1)","alpha":0.35}"#,
            r#"{"op":"query_topk","pattern":"(x:l0)-(y:l1)","k":5}"#,
        ] {
            let want = off.request(&Json::parse(q).unwrap()).unwrap();
            let got = on.request(&Json::parse(q).unwrap()).unwrap();
            assert_eq!(got.get("ok"), Some(&Json::Bool(true)), "{got}");
            assert_eq!(got.get("matches"), want.get("matches"), "{q}");
        }
        let stats = on.request(&Json::parse(r#"{"op":"stats"}"#).unwrap()).unwrap();
        let ec = stats.get("exec_cache").expect("cache-on server reports exec_cache");
        assert!(ec.get("hits").unwrap().as_u64().unwrap() >= 2, "{stats}");
        assert!(ec.get("entries").unwrap().as_u64().unwrap() >= 1, "{stats}");
        let graphs = stats.get("graphs").unwrap().as_arr().unwrap();
        let tiny = &graphs[0];
        assert!(
            tiny.get("exec_cache").unwrap().get("bytes").unwrap().as_u64().unwrap() > 0,
            "{stats}"
        );
        // The cache-off server reports no exec_cache block at all.
        let stats = off.request(&Json::parse(r#"{"op":"stats"}"#).unwrap()).unwrap();
        assert!(stats.get("exec_cache").is_none(), "{stats}");
        h_on.shutdown().unwrap();
        h_off.shutdown().unwrap();
    }

    #[test]
    fn exec_cache_epoch_invalidates_on_unload() {
        let (handle, mut client) = tiny_server(ServerConfig::default());
        // A shape queried once holds nothing; its second query admits it.
        // Unloading a cached graph drops its epoch's entries entirely.
        let q = r#"{"op":"query","graph":"tiny","pattern":"(x:l0)-(y:l1)","alpha":0.3}"#;
        let entries = |client: &mut Client| {
            let stats = client.request(&Json::parse(r#"{"op":"stats"}"#).unwrap()).unwrap();
            stats.get("exec_cache").unwrap().get("entries").unwrap().as_u64().unwrap()
        };
        client.request(&Json::parse(q).unwrap()).unwrap();
        assert_eq!(entries(&mut client), 0, "a first sight is not cached");
        client.request(&Json::parse(q).unwrap()).unwrap();
        assert_eq!(entries(&mut client), 1, "the second sight is admitted");
        client.request(&Json::parse(r#"{"op":"unload_graph","graph":"tiny"}"#).unwrap()).unwrap();
        let stats = client.request(&Json::parse(r#"{"op":"stats"}"#).unwrap()).unwrap();
        assert_eq!(
            stats.get("exec_cache").unwrap().get("entries").unwrap().as_u64(),
            Some(0),
            "{stats}"
        );
        handle.shutdown().unwrap();
    }

    #[test]
    fn explain_is_query_with_the_tracer_on() {
        let workers = spawn_workers(3);
        let (handle, mut client) = tiny_server(ServerConfig::default());
        let reply = client.request(&load_request("sh", &workers)).unwrap();
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
        for graph in ["tiny", "sh"] {
            let mut send = |op: &str| {
                let req = obj()
                    .field("op", op)
                    .field("graph", graph)
                    .field("pattern", "(x:l0)-(y:l1), (y)-(z:l0)")
                    .field("alpha", 0.2)
                    .field("limit", 7usize)
                    .build();
                let reply = client.request(&req).unwrap();
                assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
                reply
            };
            let (query, explain) = (send("query"), send("explain"));
            // The same answer, byte for byte.
            for key in ["n", "truncated", "matches"] {
                assert_eq!(
                    query.get(key).unwrap().to_string(),
                    explain.get(key).unwrap().to_string(),
                    "{graph}: {key}"
                );
            }
            assert_eq!(query.get("truncated"), Some(&Json::Bool(true)), "{graph}: {query}");
            // One clock per stage: the number a stage reports in the
            // `plan` / `pipeline` blocks is what its span carries. A stage
            // runs once or not at all (a hit joins and reduces nothing).
            let span = shard_wire::decode_span(explain.get("span").unwrap()).unwrap();
            assert_eq!(span.name, "request");
            let us = |block: &str, key: &str| {
                explain.get(block).unwrap().get(key).unwrap().as_u64().unwrap()
            };
            assert_eq!(us("plan", "plan_us"), span.find("prepare").unwrap().elapsed_us, "{graph}");
            for (stat, stage) in [
                ("candidates_us", "retrieve"),
                ("join_us", "join"),
                ("reduction_us", "reduce"),
                ("generation_us", "generate"),
            ] {
                let spans: Vec<u64> = span
                    .children
                    .iter()
                    .filter(|c| c.name == stage)
                    .map(|c| c.elapsed_us)
                    .collect();
                assert!(spans.len() <= 1, "{graph}: {stage} spans {spans:?}");
                let want = spans.first().copied().unwrap_or(0);
                assert_eq!(us("pipeline", stat), want, "{graph}: {stat} vs {stage} span");
            }
        }
        // Planning and the admission wait are histogrammed for every
        // request, traced or not.
        let metrics = &handle.state.metrics;
        assert_eq!(metrics.histogram("pipeline.prepare_us").count(), 4);
        assert_eq!(metrics.histogram("serve.admission_wait_us").count(), 4);
        assert_eq!(metrics.histogram("serve.explain_us").count(), 2);
        handle.shutdown().unwrap();
        shutdown_all(workers);
    }

    #[test]
    fn typed_load_graph_equals_the_wire_op() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let workers = spawn_workers(2);
        let layouts = [("flat", &workers[..0]), ("sharded", &workers[..])];
        for (layout, workers) in layouts {
            let reply = server
                .load_graph(&proto::LoadGraph {
                    name: format!("typed_{layout}"),
                    spec: GraphSpec {
                        kind: "synthetic".into(),
                        size: 200,
                        seed: 42,
                        uncertainty: 0.2,
                    },
                    index: PathIndexConfig { max_len: 2, beta: 0.3, ..Default::default() },
                    workers: workers.iter().map(|w| w.addr.to_string()).collect(),
                    worker_timeout: Duration::from_secs(30),
                })
                .unwrap();
            let shards = workers.len().max(1);
            assert_eq!(reply.get("shards").and_then(Json::as_usize), Some(shards), "{reply}");
        }
        let handle = server.spawn();
        let mut client = Client::connect(handle.addr).unwrap();
        for (layout, workers) in layouts {
            let reply = client.request(&load_request(&format!("wire_{layout}"), workers)).unwrap();
            assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
            let pattern = "(x:l0)-(y:l1), (y)-(z:l0)";
            assert_eq!(
                matches_text(&mut client, &format!("typed_{layout}"), pattern, 0.2),
                matches_text(&mut client, &format!("wire_{layout}"), pattern, 0.2),
                "{layout}"
            );
        }
        let stats = client.request(&Json::parse(r#"{"op":"stats"}"#).unwrap()).unwrap();
        let graphs = stats.get("graphs").unwrap().as_arr().unwrap();
        assert_eq!(graphs.len(), 4, "{stats}");
        handle.shutdown().unwrap();
        shutdown_all(workers);
    }

    fn mutation_ops() -> Vec<graphstore::GraphOp> {
        use graphstore::{GraphOp, RefId};
        vec![
            GraphOp::UpsertRef { r: None, labels: vec![(0, 0.9), (1, 0.1)] },
            GraphOp::UpsertEdge { a: RefId(3), b: RefId(11), p: 0.8 },
            GraphOp::SetSingletonWeight { r: RefId(7), weight: 0.5 },
            GraphOp::DeleteRef { r: RefId(9) },
            GraphOp::PairPosterior { a: RefId(12), b: RefId(13), q: 0.6 },
        ]
    }

    fn update_request(ops: &[graphstore::GraphOp]) -> Json {
        obj().field("op", "update_graph").field("ops", shard_wire::encode_ops(ops)).build()
    }

    /// Queries the named graph and returns the reply's serialized
    /// `matches` array — pegwire's shortest-round-trip f64 encoding makes
    /// string equality bit equality on every probability.
    fn matches_text(client: &mut Client, graph: &str, pattern: &str, alpha: f64) -> String {
        let req = obj()
            .field("op", "query")
            .field("graph", graph)
            .field("pattern", pattern)
            .field("alpha", alpha)
            .build();
        let reply = client.request(&req).unwrap();
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
        reply.get("matches").unwrap().to_string()
    }

    #[test]
    fn protocol_version_echoes_on_success_and_error() {
        let (handle, mut client) = tiny_server(ServerConfig::default());
        // Tagged requests get the tag echoed, success and error alike.
        let reply = client.request(&Json::parse(r#"{"op":"ping","v":1}"#).unwrap()).unwrap();
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
        assert_eq!(reply.get("v").and_then(Json::as_u64), Some(1), "{reply}");
        let reply = client.request(&Json::parse(r#"{"op":"warp","v":1}"#).unwrap()).unwrap();
        assert_eq!(reply.get("error").and_then(Json::as_str), Some("bad_request"), "{reply}");
        assert_eq!(reply.get("v").and_then(Json::as_u64), Some(1), "{reply}");
        // Untagged requests get untagged replies (wire compatibility).
        let reply = client.request(&Json::parse(r#"{"op":"ping"}"#).unwrap()).unwrap();
        assert!(reply.get("v").is_none(), "{reply}");
        // An unknown version is a structured rejection without an echo —
        // the tag was never validated, so it cannot be trusted as state.
        let reply = client.request(&Json::parse(r#"{"op":"ping","v":9}"#).unwrap()).unwrap();
        assert_eq!(reply.get("error").and_then(Json::as_str), Some("bad_request"), "{reply}");
        assert!(reply.get("v").is_none(), "{reply}");
        handle.shutdown().unwrap();
    }

    #[test]
    fn update_graph_matches_fresh_rebuild_bitwise() {
        // The same batch on an unsharded graph and on an in-process
        // 3-shard one, each registered with the network it was built from.
        let opts = OfflineOptions {
            index: PathIndexConfig { max_len: 2, beta: 0.3, ..Default::default() },
        };
        let refs = datagen::synthetic_refgraph(&datagen::SyntheticConfig::paper_with_uncertainty(
            200, 0.2,
        ));
        let peg = PegBuilder::new().build(&refs).unwrap();
        let offline = OfflineIndex::build(&peg, &opts).unwrap();
        let sharded = ShardedGraphStore::build(&refs, peg.clone(), &opts, 3).unwrap();
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        server.insert_graph("tiny", refs.clone(), GraphStore::Unsharded { peg, offline });
        server.insert_graph("sharded", refs.clone(), GraphStore::Sharded(sharded));
        let handle = server.spawn();
        let mut client = Client::connect(handle.addr).unwrap();

        // A second server built from scratch over the locally-mutated
        // network must answer bit-identically.
        let ops = mutation_ops();
        let mut refs = refs;
        refs.apply_all(&ops).unwrap();
        let peg = PegBuilder::new().build(&refs).unwrap();
        let (nodes, edges) = (peg.graph.n_nodes(), peg.graph.n_edges());
        let offline = OfflineIndex::build(&peg, &opts).unwrap();
        let fresh = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        fresh.insert_graph("tiny", refs, GraphStore::Unsharded { peg, offline });
        let fresh_handle = fresh.spawn();
        let mut fresh_client = Client::connect(fresh_handle.addr).unwrap();
        for (graph, shards) in [("tiny", 1), ("sharded", 3)] {
            let req = obj()
                .field("op", "update_graph")
                .field("graph", graph)
                .field("ops", shard_wire::encode_ops(&ops))
                .build();
            let reply = client.request(&req).unwrap();
            assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
            assert_eq!(reply.get("version").and_then(Json::as_u64), Some(1), "{reply}");
            assert_eq!(reply.get("shards").and_then(Json::as_usize), Some(shards), "{reply}");
            assert!(reply.get("n_dirty").unwrap().as_usize().unwrap() > 0, "{reply}");
            assert_eq!(reply.get("nodes").and_then(Json::as_usize), Some(nodes), "{reply}");
            assert_eq!(reply.get("edges").and_then(Json::as_usize), Some(edges), "{reply}");
            for pattern in ["(x:l0)-(y:l1)", "(a:l1)-(b:l0)-(c:l2)"] {
                for alpha in [0.1, 0.3] {
                    assert_eq!(
                        matches_text(&mut client, graph, pattern, alpha),
                        matches_text(&mut fresh_client, "tiny", pattern, alpha),
                        "{graph}: {pattern} at {alpha}"
                    );
                }
            }
        }
        // Stats report both graphs at version 1.
        let stats = client.request(&Json::parse(r#"{"op":"stats"}"#).unwrap()).unwrap();
        for g in stats.get("graphs").unwrap().as_arr().unwrap() {
            assert_eq!(g.get("version").and_then(Json::as_u64), Some(1), "{stats}");
        }
        fresh_handle.shutdown().unwrap();
        handle.shutdown().unwrap();
    }

    #[test]
    fn update_graph_reports_and_records_its_phases() {
        let (handle, mut client) = tiny_server(ServerConfig::default());
        let reply = client.request(&update_request(&mutation_ops())).unwrap();
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
        // Every step, in execution order, after the fields that were
        // already there.
        let text = reply.to_string();
        let mut at = text.find("\"update_us\"").expect("update_us");
        for (name, _) in UpdatePhases::default().named() {
            let phase = reply.get("phases_us").and_then(|p| p.get(name));
            assert!(phase.and_then(Json::as_u64).is_some(), "{name} in {reply}");
            let next = text.find(&format!("\"{name}\"")).unwrap();
            assert!(next > at, "{name} out of order in {reply}");
            at = next;
            let hist = handle.state.metrics.histogram(&format!("live.{name}_us"));
            assert_eq!(hist.count(), 1, "live.{name}_us");
        }
        assert_eq!(handle.state.metrics.histogram("serve.update_lock_wait_us").count(), 1);
        handle.shutdown().unwrap();
    }

    #[test]
    fn update_graph_times_the_release_of_the_previous_generation() {
        let (handle, mut client) = tiny_server(ServerConfig::default());
        let release = handle.state.metrics.histogram("serve.update_release_us");
        assert_eq!(release.count(), 0);
        let reply = client.request(&update_request(&mutation_ops())).unwrap();
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
        assert_eq!(release.count(), 1);
        handle.shutdown().unwrap();
    }

    #[test]
    fn update_graph_rolls_the_exec_cache_epoch() {
        let (handle, mut client) = tiny_server(ServerConfig::default());
        let pattern = "(x:l0)-(y:l1)";
        // Warm the execution cache on the pre-mutation epoch: a first
        // sight, an admission, a hit.
        for _ in 0..3 {
            matches_text(&mut client, "tiny", pattern, 0.3);
        }
        let stats = client.request(&Json::parse(r#"{"op":"stats"}"#).unwrap()).unwrap();
        let cache = stats.get("exec_cache").unwrap();
        let hits_before = cache.get("hits").unwrap().as_u64().unwrap();
        let misses_before = cache.get("misses").unwrap().as_u64().unwrap();
        assert!(hits_before > 0, "{stats}");
        let epoch_before = stats.get("graphs").unwrap().as_arr().unwrap()[0]
            .get("exec_cache")
            .unwrap()
            .get("epoch")
            .unwrap()
            .as_u64()
            .unwrap();

        let reply = client.request(&update_request(&mutation_ops())).unwrap();
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
        let epoch_after = reply.get("epoch").unwrap().as_u64().unwrap();
        assert_ne!(epoch_after, epoch_before, "{reply}");

        // The old epoch's entries were retired with it: the first
        // post-mutation query MUST miss (a pre-mutation base is
        // unreachable under the new epoch), then warm normally.
        let cold = matches_text(&mut client, "tiny", pattern, 0.3);
        let stats = client.request(&Json::parse(r#"{"op":"stats"}"#).unwrap()).unwrap();
        let cache = stats.get("exec_cache").unwrap();
        assert_eq!(cache.get("hits").unwrap().as_u64().unwrap(), hits_before, "{stats}");
        assert!(cache.get("misses").unwrap().as_u64().unwrap() > misses_before, "{stats}");
        let g = &stats.get("graphs").unwrap().as_arr().unwrap()[0];
        assert_eq!(
            g.get("exec_cache").unwrap().get("epoch").unwrap().as_u64(),
            Some(epoch_after),
            "{stats}"
        );
        let warm = matches_text(&mut client, "tiny", pattern, 0.3);
        assert_eq!(warm, cold, "cache-served results must be bit-identical");
        let stats = client.request(&Json::parse(r#"{"op":"stats"}"#).unwrap()).unwrap();
        assert!(
            stats.get("exec_cache").unwrap().get("hits").unwrap().as_u64().unwrap() > hits_before,
            "{stats}"
        );
        handle.shutdown().unwrap();
    }

    #[test]
    fn distributed_update_graph_stays_bit_exact() {
        // Two worker processes (played by two Server instances), a
        // coordinator loading one shard per worker — then a mutation
        // through the coordinator, which broadcasts `shard_update`. The
        // distributed answers must stay bit-identical to a local live
        // server given the identical mutation.
        let w1 = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap().spawn();
        let w2 = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap().spawn();
        let (handle, mut client) = tiny_server(ServerConfig::default());
        let req = obj()
            .field("op", "load_graph")
            .field("name", "dist")
            .field("kind", "synthetic")
            .field("size", 200usize)
            .field("seed", 42u64)
            .field("uncertainty", 0.2)
            .field("max_len", 2usize)
            .field("beta", 0.3)
            .field(
                "workers",
                Json::Arr(vec![Json::Str(w1.addr.to_string()), Json::Str(w2.addr.to_string())]),
            )
            .build();
        let reply = client.request(&req).unwrap();
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");

        let ops = mutation_ops();
        let req = obj()
            .field("op", "update_graph")
            .field("graph", "dist")
            .field("ops", shard_wire::encode_ops(&ops))
            .build();
        let reply = client.request(&req).unwrap();
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
        assert_eq!(reply.get("version").and_then(Json::as_u64), Some(1), "{reply}");
        assert_eq!(reply.get("shards").and_then(Json::as_usize), Some(2), "{reply}");

        // The local "tiny" graph is the same spec (tiny_server builds
        // synthetic(200, 0.2) with the default seed and a max_len-2
        // index); apply the same mutation to it and the distributed
        // answers must match bit for bit.
        let req = obj()
            .field("op", "update_graph")
            .field("graph", "tiny")
            .field("ops", shard_wire::encode_ops(&ops))
            .build();
        let reply = client.request(&req).unwrap();
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
        for pattern in ["(x:l0)-(y:l1)", "(a:l1)-(b:l0)-(c:l2)"] {
            for alpha in [0.1, 0.3] {
                assert_eq!(
                    matches_text(&mut client, "dist", pattern, alpha),
                    matches_text(&mut client, "tiny", pattern, alpha),
                    "{pattern} at {alpha}"
                );
            }
        }
        // A worker's `metrics` says what its replies cost: an encode time
        // and a payload size for every leg it answered.
        let mut payload_bytes = 0;
        for worker in [&w1, &w2] {
            let metrics = &worker.state.metrics;
            let legs = metrics.histogram("serve.shard_retrieve_us").count();
            assert!(legs > 0);
            assert_eq!(metrics.histogram("serve.shard_reply_encode_us").count(), legs);
            let bytes = metrics.histogram("serve.shard_reply_bytes").snapshot();
            assert_eq!(bytes.count, legs);
            payload_bytes += bytes.sum_us;
        }
        assert!(payload_bytes > 0, "the matches above crossed as column payloads");
        handle.shutdown().unwrap();
        w1.shutdown().unwrap();
        w2.shutdown().unwrap();
    }
}
