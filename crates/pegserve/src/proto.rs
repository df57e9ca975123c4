//! The typed protocol: every request the server speaks, decoded and
//! validated in one place.
//!
//! The wire format is one JSON object per line (see [`crate::server`]'s
//! framing); this module owns everything *between* the framed line and a
//! handler — the op registry, per-field validation, range ceilings, and
//! the optional protocol version tag — so a handler receives a typed
//! struct whose invariants already hold and no `req.get(...)` parsing is
//! scattered through the dispatch path.
//!
//! # Protocol versioning
//!
//! Requests may carry `"v"`, the protocol version the client speaks.
//! Absent means "whatever the server speaks" (the pre-versioning
//! contract); `1` is the current version and is echoed verbatim on the
//! reply (success and error alike, like `"id"`); any other value is a
//! structured `bad_request` *before* the op is even looked at, so a
//! client built against a future protocol fails loudly instead of
//! half-working.
//!
//! # Validation stance
//!
//! Decoding enforces everything that does not need graph state: field
//! types, range ceilings ([`MAX_LOAD_SIZE`], [`MAX_QUERY_BATCH`], ...),
//! thread-count clamping, and mutation-batch structure (via
//! [`pegshard::wire`]'s shared op codec, so `update_graph` and the
//! worker-side `shard_update` reject malformed ops identically). What
//! *does* need graph state — pattern parsing against a graph's label
//! table, entity-id bounds inside a mutation — stays with the handler
//! (patterns) or the mutation engine (ids), which report through the same
//! structured error shape.

use crate::json::Json;
use graphstore::GraphOp;
use pathindex::PathIndexConfig;
use pegmatch::online::QueryPath;
use pegmatch::query::QueryGraph;
use pegshard::wire as shard_wire;
use std::time::Duration;

/// The protocol version this server speaks. Requests tagged `"v": 1`
/// get the tag echoed; other versions are rejected.
pub const PROTOCOL_VERSION: u64 = 1;

/// Reference-count ceiling for protocol-initiated graph builds: the
/// paper's largest evaluation size. Anything bigger must be built by the
/// embedder and registered, with the reference network it was built from,
/// through `Server::insert_graph`, not by a remote request.
pub const MAX_LOAD_SIZE: usize = 1_000_000;

/// Index path-length ceiling for protocol-initiated builds: the paper's
/// `L = 3`. Path enumeration grows like `degree^max_len`, so an
/// uncapped `max_len` would let one request force an exponential index
/// build regardless of the size ceiling.
pub const MAX_LOAD_PATH_LEN: usize = 3;

/// Lowest `beta` a protocol-initiated build may use. `beta` is the path
/// index's probability-pruning threshold — driving it to 0 disables
/// pruning and blows up the index; the embedder can still build a store
/// with any `beta` and register it via `Server::insert_graph`, whose
/// updates then keep that `beta`.
pub const MIN_LOAD_BETA: f64 = 0.01;

/// Shard-count ceiling for protocol-initiated builds: the most addresses
/// a `load_graph`'s `workers` list may carry (one shard per worker), and
/// the most shards a `shard_load` may name. Each shard costs a
/// halo-replicated subgraph plus its own index build; uncapped, one
/// request could multiply the graph's memory footprint arbitrarily.
pub const MAX_LOAD_SHARDS: usize = 16;

/// Largest `hist_grid` a protocol request may carry (defaults have ~10
/// points; the cap only bounds a hostile request's memory).
const MAX_HIST_GRID_POINTS: usize = 128;

/// Matches returned per reply, tops. Replies are one JSON line held fully
/// in memory, so the reply direction needs a hard bound symmetric to the
/// request direction's line cap: a low-threshold broad pattern on a
/// 1M-node graph would otherwise materialize a multi-GB reply. Threshold
/// queries report `truncated: true` when the cap bites; `k` is clamped
/// silently (top-k is already a "best N" contract).
pub const MAX_RESULT_MATCHES: usize = 10_000;

/// Query-pattern node ceiling. The paper's largest query is 15 nodes and
/// planning cost grows steeply with pattern size, so a public endpoint
/// caps patterns well below anything the engine is sized for rather than
/// letting one request monopolize its handler thread.
pub const MAX_PATTERN_NODES: usize = 64;

/// Queries one `query_batch` may carry, tops. A batch runs under a
/// single admission permit, so the cap bounds the compute one permit can
/// occupy — and, with [`MAX_RESULT_MATCHES`] per item, the reply line.
pub const MAX_QUERY_BATCH: usize = 32;

/// Ceiling on `load_graph`'s `worker_timeout_ms`, the per-exchange
/// deadline of a distributed graph's transport: 10 minutes. Unbounded,
/// one request could set a deadline no fault would ever hit, voiding the
/// rule that every fault is a structured error inside its deadline.
pub const MAX_WORKER_TIMEOUT_MS: usize = 600_000;

/// A structured protocol error — the `error` code and `message` of an
/// `{"ok":false,...}` reply — whether decode rejected the request before
/// any handler ran or a handler failed it.
#[derive(Debug)]
pub struct ProtoError {
    /// Protocol error code (`bad_request` for everything decode catches).
    pub code: &'static str,
    /// Human-readable detail naming the offending field.
    pub message: String,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl ProtoError {
    pub(crate) fn new(code: &'static str, message: impl std::fmt::Display) -> ProtoError {
        ProtoError { code, message: message.to_string() }
    }
}

pub(crate) fn bad(message: impl std::fmt::Display) -> ProtoError {
    ProtoError::new("bad_request", message)
}

/// Validates the optional `"v"` protocol-version tag. `None` (absent or
/// null) is the untagged pre-versioning contract; [`PROTOCOL_VERSION`]
/// is accepted and echoed; anything else is a structured rejection.
pub fn protocol_version(req: &Json) -> Result<Option<u64>, ProtoError> {
    match req.get("v") {
        None | Some(Json::Null) => Ok(None),
        Some(v) => match v.as_u64() {
            Some(PROTOCOL_VERSION) => Ok(Some(PROTOCOL_VERSION)),
            Some(other) => Err(bad(format!(
                "unsupported protocol version {other} (this server speaks v{PROTOCOL_VERSION})"
            ))),
            None => Err(bad("\"v\" must be an unsigned integer")),
        },
    }
}

fn field_f64(req: &Json, key: &str, default: f64) -> Result<f64, ProtoError> {
    match req.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => v.as_f64().ok_or_else(|| bad(format!("\"{key}\" must be a number"))),
    }
}

fn field_usize(req: &Json, key: &str, default: usize) -> Result<usize, ProtoError> {
    match req.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => {
            v.as_usize().ok_or_else(|| bad(format!("\"{key}\" must be a non-negative integer")))
        }
    }
}

fn field_graph(req: &Json) -> Result<Option<String>, ProtoError> {
    match req.get("graph") {
        None | Some(Json::Null) => Ok(None),
        Some(v) => {
            v.as_str().map(|s| Some(s.to_string())).ok_or_else(|| bad("\"graph\" must be a string"))
        }
    }
}

fn require_graph(req: &Json) -> Result<String, ProtoError> {
    field_graph(req)?.ok_or_else(|| bad("missing \"graph\""))
}

/// Per-query lanes default to 1: a multi-client server gets its
/// parallelism across sessions; `threads: 0` opts one query into all
/// cores. Clamped to the machine's parallelism — an unbounded client
/// value would otherwise spawn that many OS threads and leak a
/// persistent pool per distinct count.
fn query_threads(req: &Json) -> Result<usize, ProtoError> {
    Ok(field_usize(req, "threads", 1)?.min(pegpool::machine_lanes()))
}

/// Workers default to all cores (`threads: 0`): a shard worker is a
/// dedicated process, not one session among many. Explicit counts are
/// clamped to the machine like `query`'s.
fn worker_threads(req: &Json) -> Result<usize, ProtoError> {
    Ok(match field_usize(req, "threads", 0)? {
        0 => 0,
        t => t.min(pegpool::machine_lanes()),
    })
}

fn field_debug_sleep(req: &Json) -> Result<Option<u64>, ProtoError> {
    match req.get("debug_sleep_ms") {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| bad("\"debug_sleep_ms\" must be an unsigned integer")),
    }
}

fn decode_mutation_ops(req: &Json) -> Result<Vec<GraphOp>, ProtoError> {
    shard_wire::decode_ops(req).map_err(|e| bad(format!("bad mutation batch: {e}")))
}

/// The deterministic generator spec a protocol-loaded graph is built
/// from. The distributed path leans on determinism twice: the coordinator
/// builds the full graph from the spec, and each worker rebuilds *its
/// shard* of the same graph from the same spec (forwarded in
/// `shard_load`) — so nothing graph-sized ever crosses the wire, and the
/// coordinator can cross-check node/edge counts to catch spec drift.
#[derive(Clone, Debug)]
pub struct GraphSpec {
    /// Generator family: `synthetic`, `dblp`, or `imdb`.
    pub kind: String,
    /// Reference count the generator is scaled to.
    pub size: usize,
    /// Generator seed.
    pub seed: u64,
    /// Identity-uncertainty knob (synthetic generator only).
    pub uncertainty: f64,
}

impl GraphSpec {
    /// A spec of a known generator family (`synthetic`, `dblp`, `imdb`) —
    /// the check [`GraphSpec::build_refs`] relies on.
    pub fn new(kind: &str, size: usize, seed: u64, uncertainty: f64) -> Result<Self, ProtoError> {
        if !matches!(kind, "synthetic" | "dblp" | "imdb") {
            return Err(bad(format!("unknown kind '{kind}'")));
        }
        Ok(GraphSpec { kind: kind.to_string(), size, seed, uncertainty })
    }

    /// Parses the spec fields shared by `load_graph` and `shard_load`,
    /// enforcing the [`MAX_LOAD_SIZE`] ceiling.
    fn from_request(req: &Json) -> Result<GraphSpec, ProtoError> {
        let kind = req.get("kind").and_then(Json::as_str).ok_or_else(|| bad("missing \"kind\""))?;
        let spec = GraphSpec::new(
            kind,
            req.get("size")
                .and_then(Json::as_usize)
                .ok_or_else(|| bad("missing or bad \"size\""))?,
            req.get("seed").and_then(Json::as_u64).unwrap_or(42),
            field_f64(req, "uncertainty", 0.2)?,
        )?;
        if spec.size > MAX_LOAD_SIZE {
            return Err(bad(format!(
                "\"size\" {} exceeds the load_graph ceiling of {MAX_LOAD_SIZE}",
                spec.size
            )));
        }
        Ok(spec)
    }

    /// Runs the generator.
    pub fn build_refs(&self) -> graphstore::RefGraph {
        match self.kind.as_str() {
            "synthetic" => datagen::synthetic_refgraph(&datagen::SyntheticConfig {
                seed: self.seed,
                ..datagen::SyntheticConfig::paper_with_uncertainty(self.size, self.uncertainty)
            }),
            "dblp" => datagen::dblp_like(&datagen::DblpConfig {
                seed: self.seed,
                ..datagen::DblpConfig::scaled(self.size)
            }),
            "imdb" => datagen::imdb_like(&datagen::ImdbConfig {
                seed: self.seed,
                ..datagen::ImdbConfig::scaled(self.size)
            }),
            other => unreachable!("kind '{other}' not validated by GraphSpec::new"),
        }
    }

    /// The `shard_load` request that makes a worker rebuild shard `shard`
    /// of `n_shards` of this spec's graph under `graph`. The **whole**
    /// index config crosses the wire — `gamma` and `hist_grid` included,
    /// not just `max_len`/`beta` — because any result-affecting knob the
    /// worker filled in from its own defaults would silently build a
    /// different index than the coordinator assumes, breaking
    /// bit-exactness in a way the node/edge-count cross-check cannot see.
    /// (f64 knobs survive bit-exactly on the JSON round-trip guarantee.)
    pub fn shard_load_json(
        &self,
        graph: &str,
        index: &PathIndexConfig,
        shard: usize,
        n_shards: usize,
    ) -> Json {
        crate::json::obj()
            .field("op", shard_wire::OP_SHARD_LOAD)
            .field("graph", graph)
            .field("kind", self.kind.as_str())
            .field("size", self.size)
            .field("seed", self.seed)
            .field("uncertainty", self.uncertainty)
            .field("max_len", index.max_len)
            .field("beta", index.beta)
            .field("gamma", index.gamma)
            .field("hist_grid", Json::Arr(index.hist_grid.iter().map(|&g| Json::Num(g)).collect()))
            .field("shard", shard)
            .field("n_shards", n_shards)
            .build()
    }
}

/// Parses and bounds the offline-index knobs shared by `load_graph` and
/// `shard_load`: `max_len` capped at [`MAX_LOAD_PATH_LEN`], `beta`
/// floored at [`MIN_LOAD_BETA`], `gamma`/`hist_grid` validated when given
/// (they default like the local build's config, so both sides agree even
/// when the coordinator omits them).
fn parse_index_opts(req: &Json) -> Result<PathIndexConfig, ProtoError> {
    let defaults = PathIndexConfig::default();
    let max_len = field_usize(req, "max_len", 2)?;
    if !(1..=MAX_LOAD_PATH_LEN).contains(&max_len) {
        return Err(bad(format!("\"max_len\" {max_len} out of range 1..={MAX_LOAD_PATH_LEN}")));
    }
    let beta = field_f64(req, "beta", 0.3)?;
    if !(MIN_LOAD_BETA..=1.0).contains(&beta) {
        return Err(bad(format!("\"beta\" {beta} out of range {MIN_LOAD_BETA}..=1")));
    }
    let gamma = field_f64(req, "gamma", defaults.gamma)?;
    if !(gamma > 0.0 && gamma <= 1.0) {
        return Err(bad(format!("\"gamma\" {gamma} out of range 0..=1")));
    }
    let hist_grid = match req.get("hist_grid") {
        None | Some(Json::Null) => defaults.hist_grid,
        Some(v) => {
            let points = v.as_arr().ok_or_else(|| bad("\"hist_grid\" must be an array"))?;
            if points.is_empty() || points.len() > MAX_HIST_GRID_POINTS {
                return Err(bad(format!(
                    "\"hist_grid\" must carry 1..={MAX_HIST_GRID_POINTS} points"
                )));
            }
            let grid = points
                .iter()
                .map(|p| {
                    p.as_f64()
                        .filter(|x| (0.0..=1.0).contains(x))
                        .ok_or_else(|| bad("\"hist_grid\" points must be numbers in 0..=1"))
                })
                .collect::<Result<Vec<f64>, _>>()?;
            if !grid.windows(2).all(|w| w[0] < w[1]) {
                return Err(bad("\"hist_grid\" points must be strictly ascending"));
            }
            grid
        }
    };
    Ok(PathIndexConfig { max_len, beta, gamma, hist_grid, ..defaults })
}

/// A validated `load_graph`.
pub struct LoadGraph {
    /// Name to register the graph under (default `"default"`).
    pub name: String,
    /// Generator spec the graph is built from.
    pub spec: GraphSpec,
    /// Offline-index knobs, bounded by the load ceilings.
    pub index: PathIndexConfig,
    /// Worker addresses, one shard each (empty = one unsharded store).
    /// A graph is sharded if and only if it names workers.
    pub workers: Vec<String>,
    /// Per-exchange deadline for worker wire traffic.
    pub worker_timeout: Duration,
}

impl LoadGraph {
    fn decode(req: &Json) -> Result<LoadGraph, ProtoError> {
        let name = req.get("name").and_then(Json::as_str).unwrap_or("default").to_string();
        let spec = GraphSpec::from_request(req)?;
        let index = parse_index_opts(req)?;
        let workers: Vec<String> = match req.get("workers") {
            None | Some(Json::Null) => Vec::new(),
            Some(v) => v
                .as_arr()
                .ok_or_else(|| bad("\"workers\" must be an array"))?
                .iter()
                .map(|a| {
                    a.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| bad("worker addresses must be strings"))
                })
                .collect::<Result<_, _>>()?,
        };
        if workers.len() > MAX_LOAD_SHARDS {
            return Err(bad(format!(
                "\"workers\" lists {} addresses, at most {MAX_LOAD_SHARDS} (one shard each)",
                workers.len()
            )));
        }
        let worker_timeout_ms = field_usize(req, "worker_timeout_ms", 30_000)?;
        if !(1..=MAX_WORKER_TIMEOUT_MS).contains(&worker_timeout_ms) {
            return Err(bad(format!(
                "\"worker_timeout_ms\" {worker_timeout_ms} out of range \
                 1..={MAX_WORKER_TIMEOUT_MS}"
            )));
        }
        let worker_timeout = Duration::from_millis(worker_timeout_ms as u64);
        Ok(LoadGraph { name, spec, index, workers, worker_timeout })
    }
}

/// The query-shaped ops: the online pipeline stopped after planning
/// (`prepare`), run (`query`; `query_batch` runs a list, `query_topk`
/// tightens a threshold until `k` matches qualify), or run with the
/// tracer on (`explain`) — see [`crate::server`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryOp {
    /// Plan a pattern without executing it.
    Prepare,
    /// Threshold query.
    Query,
    /// Many threshold queries, one line, one admission permit.
    Batch,
    /// Top-k query.
    Topk,
    /// Threshold query + plan summary + full span tree.
    Explain,
}

impl QueryOp {
    /// Every query-shaped op, in discriminant order.
    pub const ALL: [QueryOp; 5] =
        [QueryOp::Prepare, QueryOp::Query, QueryOp::Batch, QueryOp::Topk, QueryOp::Explain];

    /// The op's wire name.
    pub fn name(self) -> &'static str {
        match self {
            QueryOp::Prepare => "prepare",
            QueryOp::Query => "query",
            QueryOp::Batch => "query_batch",
            QueryOp::Topk => "query_topk",
            QueryOp::Explain => "explain",
        }
    }
}

/// A validated threshold query — what every [`QueryOp`] carries (a batch
/// a list of them; `query_topk` with its floor and its count arriving as
/// `min_alpha` and `k`).
pub struct Query {
    /// Target graph (`None` resolves the only loaded graph).
    pub graph: Option<String>,
    /// Pattern text, parsed against the graph's label table by the
    /// handler.
    pub pattern: String,
    /// Probability threshold (`query_topk`: the floor `min_alpha` the
    /// incremental search may stop at).
    pub alpha: f64,
    /// Match-count cap, clamped to [`MAX_RESULT_MATCHES`] (`query_topk`:
    /// `k`, how many top matches to return).
    pub limit: usize,
    /// Execution lanes, clamped to the machine (0 = all cores).
    pub threads: usize,
    /// Admission-drill sleep (honored only with the server knob).
    pub debug_sleep_ms: Option<u64>,
}

impl Query {
    /// The one decoder: `alpha` / `limit` name the threshold and cap
    /// fields and give their defaults.
    fn decode(req: &Json, alpha: (&str, f64), limit: (&str, usize)) -> Result<Query, ProtoError> {
        Ok(Query {
            graph: field_graph(req)?,
            pattern: req
                .get("pattern")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("missing \"pattern\""))?
                .to_string(),
            alpha: field_f64(req, alpha.0, alpha.1)?,
            limit: field_usize(req, limit.0, limit.1)?.min(MAX_RESULT_MATCHES),
            threads: query_threads(req)?,
            debug_sleep_ms: field_debug_sleep(req)?,
        })
    }

    fn threshold(req: &Json) -> Result<Query, ProtoError> {
        Query::decode(req, ("alpha", 0.5), ("limit", MAX_RESULT_MATCHES))
    }

    /// The request `op` carries: its one query, or a batch's list.
    fn request(op: QueryOp, req: &Json) -> Result<Request, ProtoError> {
        let items = match op {
            QueryOp::Batch => Query::batch(req)?,
            QueryOp::Topk => vec![Query::decode(req, ("min_alpha", 1e-9), ("k", 10))?],
            _ => vec![Query::threshold(req)?],
        };
        Ok(Request::Query(op, items))
    }

    /// A `query_batch`'s items, 1..=[`MAX_QUERY_BATCH`] of them: each is
    /// decoded like a lone `query` (its errors prefixed `queries[i]:`) and
    /// then takes the batch's `graph` and `threads`.
    fn batch(req: &Json) -> Result<Vec<Query>, ProtoError> {
        let graph = field_graph(req)?;
        let threads = query_threads(req)?;
        let items = req
            .get("queries")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("missing \"queries\" array"))?;
        if items.is_empty() || items.len() > MAX_QUERY_BATCH {
            return Err(bad(format!("\"queries\" must carry 1..={MAX_QUERY_BATCH} items")));
        }
        items
            .iter()
            .enumerate()
            .map(|(i, item)| match Query::threshold(item) {
                Ok(q) => Ok(Query { graph: graph.clone(), threads, ..q }),
                Err(e) => Err(bad(format!("queries[{i}]: {}", e.message))),
            })
            .collect()
    }
}

/// A validated `update_graph`: a mutation batch against a live graph.
pub struct UpdateGraph {
    /// Target graph (`None` resolves the only loaded graph).
    pub graph: Option<String>,
    /// The mutation batch, structurally validated (entity-id bounds are
    /// the mutation engine's, reported through the same error shape).
    pub ops: Vec<GraphOp>,
}

/// A validated `shard_load` (worker side of the distributed handshake).
pub struct ShardLoad {
    /// Graph name the shard is held under.
    pub graph: String,
    /// Generator spec to rebuild the full graph from.
    pub spec: GraphSpec,
    /// Offline-index knobs, bounded like `load_graph`'s.
    pub index: PathIndexConfig,
    /// This worker's shard number.
    pub shard: usize,
    /// Total shard count of the partition.
    pub n_shards: usize,
}

impl ShardLoad {
    fn decode(req: &Json) -> Result<ShardLoad, ProtoError> {
        let graph = req.get("graph").and_then(Json::as_str).unwrap_or("default").to_string();
        let spec = GraphSpec::from_request(req)?;
        let index = parse_index_opts(req)?;
        let shard = req
            .get("shard")
            .and_then(Json::as_usize)
            .ok_or_else(|| bad("missing or bad \"shard\""))?;
        let n_shards = req
            .get("n_shards")
            .and_then(Json::as_usize)
            .ok_or_else(|| bad("missing or bad \"n_shards\""))?;
        if !(1..=MAX_LOAD_SHARDS).contains(&n_shards) || shard >= n_shards {
            return Err(bad(format!(
                "shard {shard} of {n_shards} out of range (1..={MAX_LOAD_SHARDS} shards)"
            )));
        }
        Ok(ShardLoad { graph, spec, index, shard, n_shards })
    }
}

/// A validated `shard_retrieve` (worker side of one scatter leg).
pub struct ShardRetrieve {
    /// Graph name the shard is held under.
    pub graph: String,
    /// Shard version to retrieve against (`None` = latest).
    pub version: Option<u64>,
    /// Worker pool lanes (0 = all cores).
    pub threads: usize,
    /// The decoded query graph.
    pub query: QueryGraph,
    /// The decomposition paths to retrieve.
    pub paths: Vec<QueryPath>,
    /// Probability threshold.
    pub alpha: f64,
    /// Coordinator's trace id, when this scatter leg belongs to a traced
    /// request: the worker times its per-path retrieval and ships the
    /// span subtree back in the reply's `"span"` field.
    pub trace_id: Option<u64>,
}

impl ShardRetrieve {
    fn decode(req: &Json) -> Result<ShardRetrieve, ProtoError> {
        let graph = require_graph(req)?;
        let version =
            shard_wire::decode_version(req).map_err(|e| bad(format!("bad shard_retrieve: {e}")))?;
        let threads = worker_threads(req)?;
        let (query, paths, alpha) = shard_wire::decode_retrieve_request(req)
            .map_err(|e| bad(format!("bad shard_retrieve: {e}")))?;
        let trace_id = shard_wire::decode_trace_id(req)
            .map_err(|e| bad(format!("bad shard_retrieve: {e}")))?;
        Ok(ShardRetrieve { graph, version, threads, query, paths, alpha, trace_id })
    }
}

/// A validated `shard_update` (worker side of a live-graph mutation).
pub struct ShardUpdate {
    /// Graph name the shard is held under.
    pub graph: String,
    /// The version this batch advances the shard to (must be exactly
    /// latest + 1; resends of the latest are acknowledged idempotently).
    pub version: u64,
    /// The mutation batch.
    pub ops: Vec<GraphOp>,
}

impl ShardUpdate {
    fn decode(req: &Json) -> Result<ShardUpdate, ProtoError> {
        let graph = require_graph(req)?;
        let version = shard_wire::decode_version(req)
            .map_err(|e| bad(format!("bad shard_update: {e}")))?
            .ok_or_else(|| bad("missing \"version\""))?;
        let ops = decode_mutation_ops(req)?;
        Ok(ShardUpdate { graph, version, ops })
    }
}

/// Every request the protocol speaks, decoded and validated. One decode
/// path ([`Request::decode`]) replaces per-op ad-hoc field parsing — a
/// handler receives a struct whose ranges and types already hold.
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Build + register a graph from a generator spec.
    LoadGraph(LoadGraph),
    /// Drop a loaded graph (explicit name required).
    UnloadGraph(String),
    /// A query-shaped op and what it runs: one query, or a batch's 1..=
    /// [`MAX_QUERY_BATCH`].
    Query(QueryOp, Vec<Query>),
    /// Mutate a live graph in place (epoch-bumping).
    UpdateGraph(UpdateGraph),
    /// Server-wide counters.
    Stats,
    /// Process-wide metrics registry dump (counters + latency
    /// histograms).
    Metrics,
    /// Stop serving.
    Shutdown,
    /// Worker: rebuild and hold one shard from a spec.
    ShardLoad(ShardLoad),
    /// Worker: one scatter leg.
    ShardRetrieve(ShardRetrieve),
    /// Worker: apply a mutation batch, advancing the shard version.
    ShardUpdate(ShardUpdate),
    /// Worker: drop shard state for a graph.
    ShardUnload(String),
}

impl Request {
    /// Decodes one request object (already framed and JSON-parsed).
    /// Everything graph-state-independent is validated here; unknown ops
    /// and malformed fields come back as structured [`ProtoError`]s.
    pub fn decode(req: &Json) -> Result<Request, ProtoError> {
        let Some(op) = req.get("op").and_then(Json::as_str) else {
            return Err(bad("missing \"op\""));
        };
        match op {
            "ping" => Ok(Request::Ping),
            "load_graph" => LoadGraph::decode(req).map(Request::LoadGraph),
            "unload_graph" => require_graph(req).map(Request::UnloadGraph),
            "prepare" => Query::request(QueryOp::Prepare, req),
            "query" => Query::request(QueryOp::Query, req),
            "query_batch" => Query::request(QueryOp::Batch, req),
            "query_topk" => Query::request(QueryOp::Topk, req),
            "explain" => Query::request(QueryOp::Explain, req),
            "update_graph" => Ok(Request::UpdateGraph(UpdateGraph {
                graph: field_graph(req)?,
                ops: decode_mutation_ops(req)?,
            })),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            shard_wire::OP_SHARD_LOAD => ShardLoad::decode(req).map(Request::ShardLoad),
            shard_wire::OP_SHARD_RETRIEVE => ShardRetrieve::decode(req).map(Request::ShardRetrieve),
            shard_wire::OP_SHARD_UPDATE => ShardUpdate::decode(req).map(Request::ShardUpdate),
            shard_wire::OP_SHARD_UNLOAD => require_graph(req).map(Request::ShardUnload),
            other => Err(bad(format!("unknown op '{other}'"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_tag_accepts_current_rejects_others() {
        assert_eq!(protocol_version(&Json::parse(r#"{"op":"ping"}"#).unwrap()).unwrap(), None);
        assert_eq!(
            protocol_version(&Json::parse(r#"{"op":"ping","v":1}"#).unwrap()).unwrap(),
            Some(1)
        );
        for bad in [r#"{"op":"ping","v":2}"#, r#"{"op":"ping","v":"x"}"#] {
            let err = protocol_version(&Json::parse(bad).unwrap()).unwrap_err();
            assert_eq!(err.code, "bad_request", "{bad}");
        }
    }

    fn decode_err(line: &str) -> ProtoError {
        match Request::decode(&Json::parse(line).unwrap()) {
            Err(e) => e,
            Ok(_) => panic!("expected decode error for {line}"),
        }
    }

    #[test]
    fn decode_validates_ranges_in_one_place() {
        // Unknown op.
        let err = decode_err(r#"{"op":"warp"}"#);
        assert!(err.message.contains("unknown op"), "{}", err.message);
        // Query limit clamps, threads clamp, defaults fill.
        let q = match Request::decode(
            &Json::parse(r#"{"op":"query","pattern":"(x:l0)","limit":99999999,"threads":1000000}"#)
                .unwrap(),
        )
        .unwrap()
        {
            Request::Query(QueryOp::Query, mut items) => items.remove(0),
            _ => panic!("decoded wrong variant"),
        };
        assert_eq!(q.limit, MAX_RESULT_MATCHES);
        assert_eq!(q.threads, pegpool::machine_lanes());
        assert_eq!(q.alpha, 0.5);
        // Load ceilings hold at decode, before any build work.
        for bad in [
            r#"{"op":"load_graph","kind":"synthetic","size":999999999}"#,
            r#"{"op":"load_graph","kind":"synthetic","size":100,"max_len":12}"#,
            r#"{"op":"load_graph","kind":"synthetic","size":100,"beta":0}"#,
        ] {
            assert!(Request::decode(&Json::parse(bad).unwrap()).is_err(), "{bad}");
        }
        // Mutation batches share the worker-side codec.
        let err = decode_err(r#"{"op":"update_graph","ops":[{"op":"warp"}]}"#);
        assert!(err.message.contains("ops[0]"), "{}", err.message);
        // shard_update requires an explicit version.
        let err =
            decode_err(r#"{"op":"shard_update","graph":"g","ops":[{"op":"delete_ref","r":1}]}"#);
        assert!(err.message.contains("version"), "{}", err.message);
    }
}
