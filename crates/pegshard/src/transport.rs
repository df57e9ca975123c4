//! The transport seam: a shard's whole life — load, retrieve, update,
//! release — written once, executed anywhere.
//!
//! [`ShardedGraphStore`](crate::ShardedGraphStore) reaches its shards only
//! through a [`ShardTransport`], which answers two questions: *given this
//! query, decomposition, and threshold, what are every shard's
//! home-filtered candidate partials?* ([`ShardTransport::scatter`]) and
//! *after this mutation, what does every shard look like now?*
//! ([`ShardTransport::update`], answered with one [`ShardSummary`] per
//! shard — the same summary a load produces). Everything else — the
//! gather, the merged histogram, planning estimates, the global pipeline
//! phases — is transport-independent. Two implementations ship:
//!
//! * [`InProcessTransport`] — the shards live in this process (the
//!   library store, and the transport's test double); the scatter fans
//!   the shards out on the shared pool (each shard fanning its paths, and
//!   each path's prune, out again), and an update rebuilds the affected
//!   shards, carrying the rest by `Arc`.
//! * [`TcpTransport`] — each shard lives behind a worker process speaking
//!   the line protocol over one persistent **multiplexed** connection
//!   ([`pegwire::MuxConn`]): every request carries a unique id the worker
//!   echoes, so many scatters from concurrent sessions ride the same
//!   socket with out-of-order replies routed back to the right waiter.
//!   One exchange routine for every request, one resend on failure, hard
//!   deadlines on every wait — a dead worker yields a [`TransportError`]
//!   within the deadline, never a hang. An update broadcasts
//!   `shard_update` at the next version and decodes the acknowledgements
//!   with the decoder the load handshake uses ([`wire::decode_summary`]).
//!
//! Both return the same [`ShardReply`] shape, and the home-filter
//! argument (see `Shard::retrieve_paths`) guarantees the
//! union of replies is exactly the unsharded candidate list — which is
//! why the store's results are f64-bit-exact no matter which transport
//! runs underneath.

use crate::shard::{affected_shards, halo_for, Shard, ShardSummary};
use crate::wire;
use graphstore::GraphOp;
use pathindex::PathMatches;
use pegmatch::error::PegError;
use pegmatch::offline::OfflineOptions;
use pegmatch::online::candidates::Retrieval;
use pegmatch::online::{Decomposition, PathStats};
use pegmatch::query::QueryGraph;
use pegmatch::Peg;
use pegpool::ThreadPool;
use pegtrace::{Histogram, Span};
use pegwire::{Json, MuxConn, MuxError, PendingReply};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One retrieval request, broadcast identically to every shard.
pub struct ShardRequest<'a> {
    /// The full query graph (shards re-derive per-path statistics).
    pub query: &'a QueryGraph,
    /// The plan's decomposition; shards answer every path.
    pub decomp: &'a Decomposition,
    /// Per-path statistics, aligned with `decomp.paths`.
    pub pstats: &'a [PathStats],
    /// The probability threshold.
    pub alpha: f64,
    /// The caller's open `"retrieve"` span. Transports attach one child
    /// per scatter unit (in-process) or adopt each worker's decoded span
    /// subtree (TCP) — always in shard/path index order after the
    /// parallel join, never from pool threads. [`Span::disabled`] makes
    /// the whole plumbing a no-op.
    pub span: &'a Span,
}

/// One live-graph mutation, as every shard must apply it. The store has
/// already compiled the batch against the full graph; a transport either
/// rebuilds from the compiled result (in process) or ships `ops` and lets
/// each worker recompile deterministically (TCP).
pub struct UpdateRequest<'a> {
    /// The mutation batch.
    pub ops: &'a [GraphOp],
    /// The full graph before the batch.
    pub old: &'a Peg,
    /// The full graph after it.
    pub new: &'a Peg,
    /// Per node of `new`: whether the batch changed it.
    pub dirty: &'a [bool],
    /// The offline options every shard's index is built with.
    pub opts: &'a OfflineOptions,
}

/// One shard's partial result for one decomposition path.
pub struct PathPartial {
    /// Raw index retrievals on this shard, boundary replicas included.
    pub raw_total: usize,
    /// Raw retrievals this shard is home to (= this shard's contribution
    /// to the distinct raw count).
    pub raw_home: usize,
    /// Survivors of this shard's context pruning *before* home filtering
    /// (boundary replicas included) — the replication-overhead stat.
    pub pruned_total: usize,
    /// Home-filtered surviving candidates, flat: global ids, canonical
    /// ascending-node-sequence order, disjoint across shards. Its stride
    /// is the path's length, candidates or none.
    pub matches: PathMatches,
}

impl From<Retrieval> for PathPartial {
    /// A shard's [`Retrieval`] (home-filtered, globalized) as its reply.
    fn from(got: Retrieval) -> Self {
        PathPartial {
            raw_total: got.set.raw_count,
            raw_home: got.raw_home,
            pruned_total: got.pruned_total,
            matches: got.set.matches,
        }
    }
}

/// One shard's complete reply: one [`PathPartial`] per decomposition
/// path, in path order.
pub struct ShardReply {
    /// Per-path partials, aligned with the request's `decomp.paths`.
    pub paths: Vec<PathPartial>,
}

/// A shard could not answer: connection lost and not re-establishable,
/// deadline exceeded, or a malformed / error reply from the worker.
#[derive(Debug)]
pub struct TransportError {
    /// The shard that failed.
    pub shard: usize,
    /// Worker address, when the transport is remote.
    pub addr: Option<String>,
    /// What went wrong.
    pub detail: String,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.addr {
            Some(a) => write!(f, "shard {} (worker {a}): {}", self.shard, self.detail),
            None => write!(f, "shard {}: {}", self.shard, self.detail),
        }
    }
}

impl std::error::Error for TransportError {}

impl TransportError {
    /// Converts into the pipeline-facing error the serving layer maps to
    /// a structured `shard_unavailable` reply.
    pub fn into_peg(self) -> PegError {
        let detail = match &self.addr {
            Some(a) => format!("worker {a}: {}", self.detail),
            None => self.detail.clone(),
        };
        PegError::ShardUnavailable { shard: self.shard, detail }
    }
}

/// Per-worker transport counters (the `stats` reply's `workers` array).
#[derive(Clone, Debug)]
pub struct WorkerStats {
    /// Shard index this worker serves.
    pub shard: usize,
    /// Worker address.
    pub addr: String,
    /// Completed request/reply exchanges.
    pub requests: u64,
    /// Bytes shipped to the worker (request lines).
    pub bytes_tx: u64,
    /// Bytes received from the worker (reply lines).
    pub bytes_rx: u64,
    /// Times the persistent connection had to be re-established.
    pub reconnects: u64,
    /// Median exchange latency over the recent-sample window, in µs.
    pub p50_us: u64,
    /// 99th-percentile exchange latency over the window, in µs.
    pub p99_us: u64,
    /// Abandoned-request tombstones currently held by the connection's
    /// demultiplexer (replies still owed by the worker for requests whose
    /// callers gave up). A persistently nonzero value after load drains
    /// means the worker is swallowing requests.
    pub mux_tombstones: u64,
    /// High-water mark of concurrently in-flight requests on the worker
    /// connection since it was (re)established.
    pub mux_inflight_hwm: u64,
}

/// Where the shards live. Implementations must uphold the reply contract
/// documented on [`PathPartial`] (home-filtered, globalized, canonical
/// order) and the no-hang rule: every path out of
/// [`ShardTransport::scatter`] and [`ShardTransport::update`] is bounded
/// by a deadline.
pub trait ShardTransport: Send + Sync {
    /// Number of shards this transport reaches.
    fn n_shards(&self) -> usize;

    /// Executes the request against every shard, returning replies in
    /// shard order.
    fn scatter(
        &self,
        req: &ShardRequest<'_>,
        pool: &ThreadPool,
    ) -> Vec<Result<ShardReply, TransportError>>;

    /// Applies a mutation to every shard, returning a transport over the
    /// post-update shards plus each shard's new summary, in shard order.
    /// `self` is untouched and stays usable — sessions in flight keep
    /// retrieving the pre-update snapshot through it — also when the
    /// update fails partway.
    fn update(
        &self,
        req: &UpdateRequest<'_>,
    ) -> Result<(Box<dyn ShardTransport>, Vec<ShardSummary>), PegError>;

    /// Per-worker counters, when the transport is remote.
    fn worker_stats(&self) -> Option<Vec<WorkerStats>> {
        None
    }

    /// Releases remote resources (worker-side shard state, connections).
    /// In-process transports have nothing to release.
    fn release(&self) {}
}

/// All shards in this process: the library store
/// ([`ShardedGraphStore::build`](crate::ShardedGraphStore::build)) and the
/// test double for [`TcpTransport`] — the server shards a graph only over
/// workers. Shards sit behind `Arc` so a live update can carry unaffected
/// shards into the successor transport without copying them.
pub struct InProcessTransport {
    shards: Vec<Arc<Shard>>,
    /// How many updates lie between the original build and these shards.
    version: u64,
}

impl InProcessTransport {
    /// Partitions `peg` into `n_shards` shards and builds each one's
    /// offline index with `opts` (shard builds fan out on the shared
    /// pool).
    pub(crate) fn build(
        peg: &Peg,
        opts: &OfflineOptions,
        n_shards: usize,
    ) -> Result<(InProcessTransport, Vec<ShardSummary>), PegError> {
        let halo = halo_for(n_shards, opts.index.max_len.max(1));
        let shards: Vec<Arc<Shard>> = pegpool::global()
            .map(n_shards, |s| Shard::build(peg, opts, s, n_shards, halo))
            .into_iter()
            .map(|r| r.map(Arc::new))
            .collect::<Result<_, _>>()?;
        let summaries = shards.iter().map(|s| s.summary(peg)).collect();
        Ok((InProcessTransport { shards, version: 0 }, summaries))
    }
}

impl ShardTransport for InProcessTransport {
    fn n_shards(&self) -> usize {
        self.shards.len()
    }

    fn scatter(
        &self,
        req: &ShardRequest<'_>,
        pool: &ThreadPool,
    ) -> Vec<Result<ShardReply, TransportError>> {
        // Shards fan out over the pool, and each fans its paths' lookups
        // and sorts, and every path's prune, out again — finer grains than
        // shard-at-a-time, so a skewed shard cannot serialize the scatter.
        // Pool tasks only measure; spans attach below, post-join, in
        // (shard, path) index order.
        let recording = req.span.is_recording();
        let per_shard: Vec<Vec<Retrieval>> = pool.map(self.shards.len(), |s| {
            let paths = &req.decomp.paths;
            self.shards[s].retrieve_paths(req.query, paths, req.pstats, req.alpha, pool, recording)
        });
        per_shard
            .into_iter()
            .enumerate()
            .map(|(s, units)| {
                let paths = units
                    .into_iter()
                    .enumerate()
                    .map(|(i, got)| {
                        if recording {
                            let unit = got.trace(req.span, "unit");
                            unit.tag("shard", s);
                            unit.tag("path", i);
                            unit.tag("raw", got.set.raw_count);
                            unit.tag("pruned", got.pruned_total);
                        }
                        PathPartial::from(got)
                    })
                    .collect();
                Ok(ShardReply { paths })
            })
            .collect()
    }

    /// Rebuilds only the shards whose halo ball the dirty set reaches
    /// (see `affected_shards` for the soundness argument); the rest are
    /// carried by `Arc`.
    fn update(
        &self,
        req: &UpdateRequest<'_>,
    ) -> Result<(Box<dyn ShardTransport>, Vec<ShardSummary>), PegError> {
        let n_shards = self.shards.len();
        let halo = halo_for(n_shards, req.opts.index.max_len.max(1));
        let affected = affected_shards(&req.old.graph, &req.new.graph, req.dirty, n_shards, halo);
        let shards: Vec<Arc<Shard>> = pegpool::global()
            .map(n_shards, |s| {
                if affected[s] {
                    Shard::build(req.new, req.opts, s, n_shards, halo).map(Arc::new)
                } else {
                    Ok(self.shards[s].clone())
                }
            })
            .into_iter()
            .collect::<Result<_, _>>()?;
        let version = self.version + 1;
        let n_dirty = req.dirty.iter().filter(|d| **d).count();
        let summaries = shards
            .iter()
            .zip(&affected)
            .map(|(shard, &rebuilt)| ShardSummary {
                version,
                rebuilt,
                n_dirty,
                ..shard.summary(req.new)
            })
            .collect();
        Ok((Box::new(InProcessTransport { shards, version }), summaries))
    }
}

/// Knobs for [`TcpTransport`]. Every operation is bounded:
/// `connect_timeout` caps dials, `io_timeout` caps each write and each
/// per-request reply wait ([`pegwire::PendingReply::wait`]). A full
/// exchange performs at most one redial + resend, so it can never exceed
/// twice `connect_timeout + io_timeout`.
#[derive(Clone, Copy, Debug)]
pub struct TcpTransportConfig {
    /// Dial deadline per connection attempt.
    pub connect_timeout: Duration,
    /// Deadline per write and per whole-reply read. Must also cover the
    /// worker's compute for one request (a `shard_load` build, a
    /// `shard_retrieve` scatter leg), so it is generous by default.
    pub io_timeout: Duration,
}

impl Default for TcpTransportConfig {
    fn default() -> Self {
        Self { connect_timeout: Duration::from_secs(2), io_timeout: Duration::from_secs(30) }
    }
}

/// Per-worker state. The connection slot's mutex guards only the
/// `Arc<MuxConn>` handle, held for nanoseconds per clone — exchanges
/// themselves run on the shared mux connection with no per-worker
/// serialization, and the counters are atomics (the latency histogram is
/// lock-free too), so [`TcpTransport::worker_stats`] never blocks on an
/// in-flight scatter.
struct WorkerCell {
    conn: Mutex<Option<Arc<MuxConn>>>,
    requests: AtomicU64,
    reconnects: AtomicU64,
    bytes_tx: AtomicU64,
    bytes_rx: AtomicU64,
    /// Full-history exchange latencies: a [`pegtrace::Histogram`] holds
    /// every sample at ≤1.6% relative bucket error (with the max exact),
    /// replacing the old fixed ring of recent samples — quantiles cover
    /// the connection's whole life, not a sliding window.
    latencies: Histogram,
}

impl WorkerCell {
    fn new(conn: MuxConn) -> WorkerCell {
        WorkerCell {
            conn: Mutex::new(Some(Arc::new(conn))),
            requests: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            bytes_tx: AtomicU64::new(0),
            bytes_rx: AtomicU64::new(0),
            latencies: Histogram::new(),
        }
    }
}

/// One worker process per shard, reached over one persistent multiplexed
/// TCP connection each.
///
/// Every request goes out with a connection-unique id the worker echoes;
/// replies route back to their waiter in any order. Concurrent sessions
/// on the same graph therefore overlap their retrieval phases freely —
/// a scatter holds no lock while a worker computes, only the nanoseconds
/// it takes to clone the connection handle out of its slot. (This lifted
/// the pre-mux ceiling where one in-flight scatter per worker serialized
/// concurrent sessions on the connection mutexes.)
///
/// Failure model: on any exchange error the transport resends once — on a
/// fresh connection when the old one died, on the same one after a
/// timed-out wait; a second failure is a [`TransportError`] (surfaced as
/// `shard_unavailable` by the serving layer). One routine does every
/// exchange — scatter, load, update and release alike. Resending is
/// safe: the worker ops are read-only against shard state (retrieval) or
/// idempotent (load/unload, a same-version update). A worker replying with
/// a structured `"ok":false` error is also a [`TransportError`] — a shard
/// that cannot answer is unavailable whatever the reason. Exchanges never
/// hang: every wait carries the [`TcpTransportConfig`] deadlines.
///
/// A clone shares the connections and counters (a live update's successor
/// is one, pinned to the next version).
#[derive(Clone)]
pub struct TcpTransport {
    graph: String,
    addrs: Vec<String>,
    config: TcpTransportConfig,
    workers: Arc<Vec<WorkerCell>>,
    /// The shard snapshot this transport's retrieves pin on the workers.
    /// Workers keep their last two versions, so in-flight sessions on the
    /// pre-update store finish consistently while the successor serves.
    version: u64,
}

impl TcpTransport {
    /// Connects to every worker eagerly (failing fast if one is down) and
    /// binds the transport to `graph` — the name workers hold their shard
    /// state under — at version 0 (the freshly loaded shard snapshot).
    pub fn connect(
        graph: &str,
        addrs: &[String],
        config: TcpTransportConfig,
    ) -> Result<TcpTransport, TransportError> {
        let workers = addrs
            .iter()
            .enumerate()
            .map(|(s, addr)| {
                let conn = MuxConn::connect(addr, config.connect_timeout, config.io_timeout)
                    .map_err(|e| TransportError {
                        shard: s,
                        addr: Some(addr.clone()),
                        detail: e.to_string(),
                    })?;
                Ok(WorkerCell::new(conn))
            })
            .collect::<Result<Vec<_>, TransportError>>()?;
        Ok(TcpTransport {
            graph: graph.to_string(),
            addrs: addrs.to_vec(),
            config,
            workers: Arc::new(workers),
            version: 0,
        })
    }

    fn err(&self, shard: usize, detail: impl std::fmt::Display) -> TransportError {
        TransportError { shard, addr: Some(self.addrs[shard].clone()), detail: detail.to_string() }
    }

    /// Clones the worker's live connection handle out of its slot,
    /// redialing first if the slot is empty or the reader declared the
    /// connection dead. The lock is held only for the check + clone.
    fn conn_arc(&self, shard: usize) -> Result<Arc<MuxConn>, TransportError> {
        let cell = &self.workers[shard];
        let mut slot = cell.conn.lock().unwrap();
        if let Some(conn) = slot.as_ref() {
            if conn.is_alive() {
                return Ok(conn.clone());
            }
        }
        let fresh = MuxConn::connect(
            &self.addrs[shard],
            self.config.connect_timeout,
            self.config.io_timeout,
        )
        .map_err(|e| self.err(shard, e))?;
        cell.reconnects.fetch_add(1, Ordering::Relaxed);
        let fresh = Arc::new(fresh);
        *slot = Some(fresh.clone());
        Ok(fresh)
    }

    /// Drops `failed` from the worker's slot — but only if the slot still
    /// holds that very connection, so a concurrent exchange that already
    /// redialed is not knocked out by a stale failure.
    fn invalidate(&self, shard: usize, failed: &Arc<MuxConn>) {
        let mut slot = self.workers[shard].conn.lock().unwrap();
        if slot.as_ref().is_some_and(|cur| Arc::ptr_eq(cur, failed)) {
            *slot = None;
        }
    }

    /// Puts `line` on worker `shard`'s connection — redialing first if
    /// its slot is empty or dead — without waiting for the reply. The
    /// mux's writer lock is held for one framed write, so every worker
    /// starts computing at once and nothing stays locked while it does.
    /// Returns the connection the request went out on and its reply slot.
    fn begin(
        &self,
        shard: usize,
        line: &str,
    ) -> Result<(Arc<MuxConn>, PendingReply), TransportError> {
        let conn = self.conn_arc(shard)?;
        match conn.begin(line) {
            Ok(pending) => {
                self.workers[shard].bytes_tx.fetch_add(pending.sent_bytes, Ordering::Relaxed);
                Ok((conn, pending))
            }
            Err(e) => {
                self.invalidate(shard, &conn);
                Err(self.err(shard, e))
            }
        }
    }

    /// Waits out one begun request: the reply and its wire bytes.
    fn wait(
        &self,
        shard: usize,
        (conn, pending): (Arc<MuxConn>, PendingReply),
    ) -> Result<(Json, u64), TransportError> {
        pending.wait(self.config.io_timeout).map_err(|e| {
            // A timed-out wait leaves the connection itself healthy (the
            // slot was cancelled; a late reply is discarded), so the
            // resend rides the same socket; a dead one is dropped so the
            // resend redials.
            if !matches!(e, MuxError::Timeout) || !conn.is_alive() {
                self.invalidate(shard, &conn);
            }
            self.err(shard, e)
        })
    }

    /// The one exchange: `line(s)` goes to every worker `s` at once, then
    /// each reply is waited for in shard order. A failed attempt — begin
    /// or wait — gets exactly one resend (a redial first if the
    /// connection died), so a silent worker holds its caller for at most
    /// two `io_timeout`s. Requests, bytes and the latency sample are
    /// counted here and nowhere else. The scatter, the load / update
    /// broadcast and the release all go through it.
    fn exchange<'l>(&self, line: impl Fn(usize) -> &'l str) -> Vec<Result<Json, TransportError>> {
        let t0 = Instant::now();
        let begun: Vec<_> = (0..self.addrs.len()).map(|s| self.begin(s, line(s))).collect();
        begun
            .into_iter()
            .enumerate()
            .map(|(s, first)| {
                let (reply, rx) = first.and_then(|b| self.wait(s, b)).or_else(|e| {
                    self.begin(s, line(s)).and_then(|b| self.wait(s, b)).map_err(|retry| {
                        self.err(s, format!("{}; after retry: {}", e.detail, retry.detail))
                    })
                })?;
                let cell = &self.workers[s];
                cell.bytes_rx.fetch_add(rx, Ordering::Relaxed);
                cell.requests.fetch_add(1, Ordering::Relaxed);
                cell.latencies.record(t0.elapsed());
                Ok(reply)
            })
            .collect()
    }

    /// Sends `line(s)` to every worker `s` (workers build or rebuild in
    /// parallel) and decodes each reply's summary: the exchange behind
    /// both the load handshake (`version` 0) and a live update. A worker
    /// whose full graph disagrees with `full` — the coordinator's own —
    /// would silently break bit-exactness, so it is an error like any
    /// other malformed reply.
    fn broadcast<'l>(
        &self,
        full: &Peg,
        version: u64,
        line: impl Fn(usize) -> &'l str,
    ) -> Result<Vec<ShardSummary>, TransportError> {
        let full = (full.graph.n_nodes(), full.graph.n_edges());
        self.exchange(line)
            .into_iter()
            .enumerate()
            .map(|(s, reply)| {
                let reply = self.accepted(s, reply?)?;
                let summary = wire::decode_summary(&reply, version)
                    .map_err(|e| self.err(s, format!("malformed reply: {e}")))?;
                let held = (summary.full_nodes, summary.full_edges);
                if held != full {
                    let detail = format!(
                        "worker holds a different graph ({held:?} nodes/edges vs the \
                         coordinator's {full:?}); generator specs must match"
                    );
                    return Err(self.err(s, detail));
                }
                Ok(summary)
            })
            .collect()
    }

    /// The load handshake: sends one `shard_load` request per worker
    /// (built by `load_request(shard, n_shards)` — the caller supplies the
    /// generator spec) and returns each worker's summary of the shard it
    /// built.
    pub(crate) fn load(
        &self,
        full: &Peg,
        load_request: impl Fn(usize, usize) -> Json,
    ) -> Result<Vec<ShardSummary>, TransportError> {
        let n_shards = self.addrs.len();
        let lines: Vec<String> =
            (0..n_shards).map(|s| load_request(s, n_shards).to_string()).collect();
        // A freshly built worker shard is at version 0.
        self.broadcast(full, 0, |s| &lines[s])
    }

    /// A worker's structured `"ok":false` is a failed exchange: a shard
    /// that cannot answer is unavailable whatever the reason.
    fn accepted(&self, shard: usize, reply: Json) -> Result<Json, TransportError> {
        if reply.get("ok") == Some(&Json::Bool(true)) {
            return Ok(reply);
        }
        let code = reply.get("error").and_then(Json::as_str).unwrap_or("error");
        let msg = reply.get("message").and_then(Json::as_str).unwrap_or("no detail");
        Err(self.err(shard, format!("worker replied {code}: {msg}")))
    }

    /// Validates and decodes one worker reply. When the request carried a
    /// trace id, the worker's own span subtree rides back on the reply's
    /// `"span"` field; it grafts onto `span` here — callers invoke this
    /// in shard index order, so the stitched tree is deterministic.
    fn reply_to_shard_reply(
        &self,
        shard: usize,
        reply: Json,
        n_paths: usize,
        span: &Span,
    ) -> Result<ShardReply, TransportError> {
        let reply = self.accepted(shard, reply)?;
        let decoded = wire::decode_retrieve_reply(&reply, n_paths)
            .map_err(|e| self.err(shard, format!("malformed reply: {e}")))?;
        if span.is_recording() {
            if let Some(node) = reply.get("span") {
                if let Ok(node) = wire::decode_span(node) {
                    span.adopt(node);
                }
            }
        }
        Ok(decoded)
    }
}

impl ShardTransport for TcpTransport {
    fn n_shards(&self) -> usize {
        self.addrs.len()
    }

    fn scatter(
        &self,
        req: &ShardRequest<'_>,
        _pool: &ThreadPool,
    ) -> Vec<Result<ShardReply, TransportError>> {
        let n_paths = req.decomp.paths.len();
        let line = wire::retrieve_request(&self.graph, self.version, req).to_string();
        // Workers compute concurrently, the coordinator's wait is
        // max(worker time), and nothing is locked while they compute, so
        // concurrent sessions' scatters interleave on the same connections.
        self.exchange(|_| &line)
            .into_iter()
            .enumerate()
            .map(|(s, reply)| self.reply_to_shard_reply(s, reply?, n_paths, req.span))
            .collect()
    }

    /// Broadcasts `shard_update` at the next version. On a partial
    /// failure `self` stays fully usable (its retrieves pin the current
    /// version, which workers keep); retrying re-sends the same version,
    /// which workers that already applied it acknowledge idempotently.
    fn update(
        &self,
        req: &UpdateRequest<'_>,
    ) -> Result<(Box<dyn ShardTransport>, Vec<ShardSummary>), PegError> {
        let version = self.version + 1;
        let line = wire::update_request(&self.graph, req.ops, version).to_string();
        let summaries =
            self.broadcast(req.new, version, |_| &line).map_err(TransportError::into_peg)?;
        Ok((Box::new(TcpTransport { version, ..self.clone() }), summaries))
    }

    /// Reads atomics, the lock-free latency histogram, and the connection
    /// slot (held only for the handle clone — never across an exchange),
    /// so stats stay available while a scatter is in flight.
    fn worker_stats(&self) -> Option<Vec<WorkerStats>> {
        let stats = self
            .workers
            .iter()
            .enumerate()
            .map(|(s, w)| {
                // Mux diagnostics come from the live connection; an empty
                // slot (between redials) reports zeros, and the HWM is
                // per-connection by design — it resets with a reconnect.
                let (tombstones, inflight_hwm) = w
                    .conn
                    .lock()
                    .unwrap()
                    .as_ref()
                    .map(|c| (c.tombstones() as u64, c.inflight_hwm() as u64))
                    .unwrap_or((0, 0));
                WorkerStats {
                    shard: s,
                    addr: self.addrs[s].clone(),
                    requests: w.requests.load(Ordering::Relaxed),
                    bytes_tx: w.bytes_tx.load(Ordering::Relaxed),
                    bytes_rx: w.bytes_rx.load(Ordering::Relaxed),
                    reconnects: w.reconnects.load(Ordering::Relaxed),
                    p50_us: w.latencies.quantile_us(0.50),
                    p99_us: w.latencies.quantile_us(0.99),
                    mux_tombstones: tombstones,
                    mux_inflight_hwm: inflight_hwm,
                }
            })
            .collect();
        Some(stats)
    }

    /// Tells every worker to drop its shard state for this graph
    /// (best-effort — a dead worker has nothing to free) and closes the
    /// persistent connections.
    fn release(&self) {
        let unload = wire::unload_request(&self.graph).to_string();
        let _ = self.exchange(|_| &unload);
        for w in self.workers.iter() {
            *w.conn.lock().unwrap() = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphstore::Label;
    use pegmatch::online::{decompose, DecompStrategy};
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// A worker that accepts, counts the request lines it reads and never
    /// replies. The failure model allows one resend, so a scatter leg to
    /// it costs exactly two lines (and two `io_timeout`s) before it fails.
    #[test]
    fn a_silent_worker_gets_exactly_one_resend() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let lines = Arc::new(AtomicU64::new(0));
        let seen = lines.clone();
        std::thread::spawn(move || {
            for stream in listener.incoming().map_while(Result::ok) {
                let seen = seen.clone();
                std::thread::spawn(move || {
                    for _ in BufReader::new(stream).lines().map_while(Result::ok) {
                        seen.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        let config = TcpTransportConfig {
            connect_timeout: Duration::from_secs(2),
            io_timeout: Duration::from_millis(100),
        };
        let transport = TcpTransport::connect("g", &[addr], config).unwrap();
        let query = QueryGraph::path(&[Label(0), Label(1)]).unwrap();
        let decomp = decompose(&query, 1, &|_| 1.0, DecompStrategy::CostBased).unwrap();
        let pstats: Vec<PathStats> =
            decomp.paths.iter().map(|p| PathStats::new(&query, p)).collect();
        let span = Span::disabled();
        let req = ShardRequest {
            query: &query,
            decomp: &decomp,
            pstats: &pstats,
            alpha: 0.5,
            span: &span,
        };
        let replies = transport.scatter(&req, &pegpool::pool_with(1));
        let err = replies.into_iter().next().unwrap().err().expect("a silent worker fails");
        assert!(err.detail.contains("after retry"), "{err}");
        // The resend went out before its wait began; give the fake's
        // reader a moment to count anything later.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(lines.load(Ordering::SeqCst), 2, "request lines the silent worker saw");
    }
}
