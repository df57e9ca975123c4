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
//! * [`InProcessTransport`] — the shards live in this process, each a
//!   [`WorkerShard`], the unit a worker process serves: the scatter calls
//!   each shard's traced retrieve on the shared pool, and an update calls
//!   each shard's `apply_update` at the next version — what a
//!   [`TcpTransport`] asks of its workers, minus the bytes.
//! * [`TcpTransport`] — each shard lives behind a worker process speaking
//!   the line protocol over blocking connections ([`pegwire::LineConn`]),
//!   one exchange at a time each: a worker keeps a list of idle
//!   connections, and concurrent sessions' scatters overlap on separate
//!   ones. One exchange routine for every request, one resend on a fresh
//!   dial after a failure, hard deadlines on every read and write — a
//!   dead worker yields a [`TransportError`] within the deadline, never a
//!   hang. An update broadcasts
//!   `shard_update` at the next version and decodes the acknowledgements
//!   with the decoder the load handshake uses ([`wire::decode_summary`]).
//!
//! Both run the same [`WorkerShard`] code per shard and return the same
//! [`ShardReply`] shape, and the home-filter argument (see
//! `Shard::retrieve_paths`) guarantees the
//! union of replies is exactly the unsharded candidate list — which is
//! why the store's results are f64-bit-exact no matter which transport
//! runs underneath.

use crate::shard::ShardSummary;
use crate::wire;
use crate::worker::WorkerShard;
use graphstore::{GraphOp, RefGraph};
use pathindex::PathMatches;
use pegmatch::error::PegError;
use pegmatch::offline::OfflineOptions;
use pegmatch::online::candidates::Retrieval;
use pegmatch::online::Decomposition;
use pegmatch::query::QueryGraph;
use pegmatch::Peg;
use pegpool::ThreadPool;
use pegtrace::{Histogram, Span};
use pegwire::{Json, LineConn};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// One retrieval request, broadcast identically to every shard.
pub struct ShardRequest<'a> {
    /// The full query graph (shards derive per-path statistics from it).
    pub query: &'a QueryGraph,
    /// The plan's decomposition; shards answer every path.
    pub decomp: &'a Decomposition,
    /// The probability threshold.
    pub alpha: f64,
    /// The caller's open `"retrieve"` span. Transports adopt each shard's
    /// `"shard_retrieve"` subtree ([`WorkerShard::retrieve_leg`]) in shard
    /// order after the parallel join, never from pool threads.
    /// [`Span::disabled`] makes the whole plumbing a no-op.
    pub span: &'a Span,
}

/// One live-graph mutation, as every shard must apply it: each shard
/// recompiles `ops` deterministically ([`WorkerShard::apply_update`]).
pub struct UpdateRequest<'a> {
    /// The mutation batch.
    pub ops: &'a [GraphOp],
    /// The full graph after it, as the store compiled it: the graph a
    /// remote shard's summary is checked against.
    pub new: &'a Peg,
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
    /// Resends after a failed exchange, each on a freshly dialed
    /// connection.
    pub reconnects: u64,
    /// Median exchange latency over the recent-sample window, in µs.
    pub p50_us: u64,
    /// 99th-percentile exchange latency over the window, in µs.
    pub p99_us: u64,
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

/// All shards in this process, each a [`WorkerShard`] behind `Arc`, plus
/// the version this transport's retrieves pin: the store
/// [`ShardedGraphStore::build`](crate::ShardedGraphStore::build) makes, and
/// the test double for [`TcpTransport`] — the server shards a graph only
/// over workers. A live update's successor shares the same shards at the
/// next version, and the shards keep their last two versions, as workers
/// do.
pub struct InProcessTransport {
    shards: Vec<Arc<WorkerShard>>,
    version: u64,
}

impl InProcessTransport {
    /// Builds shard `s` of `n_shards` from `refs` and `peg` for every `s`,
    /// fanned out on the shared pool. Each shard keeps its own copy of
    /// the reference network and the full graph, as a worker process
    /// does.
    pub(crate) fn build(
        refs: &RefGraph,
        peg: &Peg,
        opts: &OfflineOptions,
        n_shards: usize,
    ) -> Result<(InProcessTransport, Vec<ShardSummary>), PegError> {
        if n_shards == 0 {
            return Err(PegError::Invalid("shard count must be at least 1".into()));
        }
        let shards: Vec<Arc<WorkerShard>> = pegpool::global()
            .map(n_shards, |s| WorkerShard::build(refs.clone(), peg.clone(), opts, s, n_shards))
            .into_iter()
            .map(|r| r.map(Arc::new))
            .collect::<Result<_, _>>()?;
        let summaries = shards.iter().map(|s| s.summary()).collect();
        Ok((InProcessTransport { shards, version: 0 }, summaries))
    }
}

impl ShardTransport for InProcessTransport {
    fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Each shard's leg runs on the pool (and fans its own paths out
    /// again) with a tracer of its own when the request is traced; the
    /// subtrees are adopted after the join, in shard order.
    fn scatter(
        &self,
        req: &ShardRequest<'_>,
        pool: &ThreadPool,
    ) -> Vec<Result<ShardReply, TransportError>> {
        let trace_id = req.span.trace_id();
        let legs = pool.map(self.shards.len(), |s| {
            let paths = &req.decomp.paths;
            self.shards[s].retrieve_leg(
                req.query,
                paths,
                req.alpha,
                Some(self.version),
                trace_id,
                pool,
            )
        });
        legs.into_iter()
            .enumerate()
            .map(|(s, leg)| {
                let leg = leg.map_err(|e| TransportError {
                    shard: s,
                    addr: None,
                    detail: e.to_string(),
                })?;
                if let Some(node) = leg.span {
                    req.span.adopt(node);
                }
                Ok(leg.reply)
            })
            .collect()
    }

    /// Applies the batch to every shard at the next version, fanned out
    /// on the shared pool.
    fn update(
        &self,
        req: &UpdateRequest<'_>,
    ) -> Result<(Box<dyn ShardTransport>, Vec<ShardSummary>), PegError> {
        let version = self.version + 1;
        let summaries = pegpool::global()
            .map(self.shards.len(), |s| self.shards[s].apply_update(req.ops, version))
            .into_iter()
            .collect::<Result<_, _>>()?;
        let successor = InProcessTransport { shards: self.shards.clone(), version };
        Ok((Box::new(successor), summaries))
    }
}

/// Knobs for [`TcpTransport`]. Every operation is bounded:
/// `connect_timeout` caps dials, `io_timeout` caps each write and each
/// whole-reply read ([`pegwire::LineConn`]). A full exchange performs at
/// most one redial + resend, so it can never exceed twice
/// `connect_timeout + io_timeout`.
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

/// Per-worker state. The idle list's mutex is held for one push or pop,
/// never across an exchange, and the counters are atomics (the latency
/// histogram is lock-free too), so [`TcpTransport::worker_stats`] never
/// blocks on an in-flight scatter.
struct WorkerCell {
    /// Connections with no exchange in flight. An exchange pops one (or
    /// dials one when there is none) and pushes it back only after a whole
    /// reply, so the list never holds more connections than were ever in
    /// flight at once — which admission bounds.
    idle: Mutex<Vec<LineConn>>,
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
    fn new(conn: LineConn) -> WorkerCell {
        WorkerCell {
            idle: Mutex::new(vec![conn]),
            requests: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            bytes_tx: AtomicU64::new(0),
            bytes_rx: AtomicU64::new(0),
            latencies: Histogram::new(),
        }
    }

    /// The idle list. A push, pop or clear leaves it valid at every step,
    /// so a panic elsewhere while it was held poisons nothing.
    fn idle(&self) -> MutexGuard<'_, Vec<LineConn>> {
        self.idle.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One worker process per shard, reached over blocking line connections
/// that carry one exchange at a time.
///
/// Each worker keeps a list of idle connections. An exchange takes one
/// (or dials one), writes its line, reads the reply and puts the
/// connection back, so concurrent sessions on the same graph overlap
/// their retrieval phases on separate connections, and nothing is locked
/// while a worker computes.
///
/// Failure model: any write or read error drops that connection *and* the
/// worker's whole idle list — whatever killed one (a dead or restarted
/// worker) left the others stale too — and the transport resends once, on
/// a freshly dialed connection; a second failure is a [`TransportError`]
/// (surfaced as `shard_unavailable` by the serving layer). One routine
/// does every exchange — scatter, load, update and release alike.
/// Resending is safe: the worker ops are read-only against shard state
/// (retrieval) or idempotent (load/unload, a same-version update). A worker
/// replying with a structured `"ok":false` error is also a
/// [`TransportError`] — a shard that cannot answer is unavailable whatever
/// the reason. Exchanges never hang: every dial, write and read carries the
/// [`TcpTransportConfig`] deadlines.
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

/// Dials a worker with the transport's deadlines.
fn dial(addr: &str, config: &TcpTransportConfig) -> std::io::Result<LineConn> {
    LineConn::connect(addr, Some(config.connect_timeout), Some(config.io_timeout))
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
                let conn = dial(addr, &config).map_err(|e| TransportError {
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

    /// A failed write or read: drops worker `shard`'s idle connections
    /// (see the failure model) and describes the failure.
    fn fail(&self, shard: usize, detail: impl std::fmt::Display) -> TransportError {
        self.workers[shard].idle().clear();
        self.err(shard, detail)
    }

    /// Writes `line` to worker `shard` on an idle connection — or on a
    /// fresh dial when none is idle or when `fresh` (the resend) — and
    /// returns the connection its reply will arrive on. Writing to every
    /// worker before reading any reply lets them all compute at once.
    fn send(&self, shard: usize, line: &str, fresh: bool) -> Result<LineConn, TransportError> {
        let cell = &self.workers[shard];
        let idle = if fresh { None } else { cell.idle().pop() };
        let mut conn = match idle {
            Some(conn) => conn,
            None => dial(&self.addrs[shard], &self.config).map_err(|e| self.err(shard, e))?,
        };
        conn.send(line).map_err(|e| self.fail(shard, e))?;
        cell.bytes_tx.fetch_add(line.len() as u64 + 1, Ordering::Relaxed);
        Ok(conn)
    }

    /// Reads the reply `conn` owes — the parsed line and its wire bytes —
    /// and puts the connection back on the idle list.
    fn recv(&self, shard: usize, mut conn: LineConn) -> Result<(Json, u64), TransportError> {
        let line = conn.recv().map_err(|e| self.fail(shard, e))?;
        let reply =
            Json::parse(&line).map_err(|e| self.fail(shard, format!("malformed reply: {e}")))?;
        self.workers[shard].idle().push(conn);
        Ok((reply, line.len() as u64 + 1))
    }

    /// The one exchange: `line(s)` goes to every worker `s` at once, then
    /// each reply is read in shard order. A failed attempt — write or read
    /// — gets exactly one resend, on a fresh dial, so a silent worker holds
    /// its caller for at most two `io_timeout`s. Requests, bytes, resends
    /// and the latency sample are counted here and nowhere else. The
    /// scatter, the load / update broadcast and the release all go through
    /// it.
    fn exchange<'l>(&self, line: impl Fn(usize) -> &'l str) -> Vec<Result<Json, TransportError>> {
        let t0 = Instant::now();
        let sent: Vec<_> = (0..self.addrs.len()).map(|s| self.send(s, line(s), false)).collect();
        sent.into_iter()
            .enumerate()
            .map(|(s, first)| {
                let cell = &self.workers[s];
                let (reply, rx) = first.and_then(|conn| self.recv(s, conn)).or_else(|e| {
                    cell.reconnects.fetch_add(1, Ordering::Relaxed);
                    self.send(s, line(s), true).and_then(|conn| self.recv(s, conn)).map_err(
                        |retry| self.err(s, format!("{}; after retry: {}", e.detail, retry.detail)),
                    )
                })?;
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
        // concurrent sessions' scatters overlap on separate connections.
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

    /// Reads atomics and the lock-free latency histogram only, so stats
    /// stay available while a scatter is in flight.
    fn worker_stats(&self) -> Option<Vec<WorkerStats>> {
        let stats = self
            .workers
            .iter()
            .enumerate()
            .map(|(s, w)| WorkerStats {
                shard: s,
                addr: self.addrs[s].clone(),
                requests: w.requests.load(Ordering::Relaxed),
                bytes_tx: w.bytes_tx.load(Ordering::Relaxed),
                bytes_rx: w.bytes_rx.load(Ordering::Relaxed),
                reconnects: w.reconnects.load(Ordering::Relaxed),
                p50_us: w.latencies.quantile_us(0.50),
                p99_us: w.latencies.quantile_us(0.99),
            })
            .collect();
        Some(stats)
    }

    /// Tells every worker to drop its shard state for this graph
    /// (best-effort — a dead worker has nothing to free) and closes the
    /// idle connections.
    fn release(&self) {
        let unload = wire::unload_request(&self.graph).to_string();
        let _ = self.exchange(|_| &unload);
        for w in self.workers.iter() {
            w.idle().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphstore::Label;
    use pegmatch::online::{decompose, DecompStrategy};
    use std::io::{BufRead, BufReader, Write};
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
        let span = Span::disabled();
        let req = ShardRequest { query: &query, decomp: &decomp, alpha: 0.5, span: &span };
        let replies = transport.scatter(&req, &pegpool::pool_with(1));
        let err = replies.into_iter().next().unwrap().err().expect("a silent worker fails");
        assert!(err.detail.contains("after retry"), "{err}");
        // The resend went out before its wait began; give the fake's
        // reader a moment to count anything later.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(lines.load(Ordering::SeqCst), 2, "request lines the silent worker saw");
    }

    /// One scatter of `(l0)-(l1)` at α 0.5 through `transport`.
    fn scatter_once(transport: &TcpTransport) -> Vec<Result<ShardReply, TransportError>> {
        let query = QueryGraph::path(&[Label(0), Label(1)]).unwrap();
        let decomp = decompose(&query, 1, &|_| 1.0, DecompStrategy::CostBased).unwrap();
        let span = Span::disabled();
        let req = ShardRequest { query: &query, decomp: &decomp, alpha: 0.5, span: &span };
        transport.scatter(&req, &pegpool::pool_with(1))
    }

    /// A fake worker that answers every request line, after `delay`, with
    /// a well-formed empty retrieve reply (one path, the one
    /// [`scatter_once`]'s plan has), on a thread per connection. With
    /// `hang_up`, it closes each connection after its first reply.
    fn fake_worker(delay: Duration, hang_up: bool) -> String {
        let empty = PathPartial {
            raw_total: 0,
            raw_home: 0,
            pruned_total: 0,
            matches: PathMatches::new(2),
        };
        let reply =
            format!("{}\n", wire::encode_retrieve_reply(&ShardReply { paths: vec![empty] }));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            for stream in listener.incoming().map_while(Result::ok) {
                let reply = reply.clone();
                std::thread::spawn(move || {
                    let mut writer = stream.try_clone().unwrap();
                    for _ in BufReader::new(stream).lines().map_while(Result::ok) {
                        std::thread::sleep(delay);
                        if writer.write_all(reply.as_bytes()).is_err() || hang_up {
                            return;
                        }
                    }
                });
            }
        });
        addr
    }

    fn config() -> TcpTransportConfig {
        TcpTransportConfig {
            connect_timeout: Duration::from_secs(2),
            io_timeout: Duration::from_secs(5),
        }
    }

    /// Concurrent scatters overlap on separate connections: two at once
    /// take about as long as one, and leave two idle connections behind.
    #[test]
    fn concurrent_scatters_overlap_on_separate_connections() {
        let transport =
            TcpTransport::connect("g", &[fake_worker(Duration::from_millis(300), false)], config())
                .unwrap();
        let t0 = Instant::now();
        assert!(scatter_once(&transport)[0].is_ok());
        let one = t0.elapsed();
        let t0 = Instant::now();
        let scatters: Vec<_> = (0..2)
            .map(|_| {
                let transport = transport.clone();
                std::thread::spawn(move || scatter_once(&transport)[0].is_ok())
            })
            .collect();
        for scatter in scatters {
            assert!(scatter.join().unwrap());
        }
        let two = t0.elapsed();
        assert!(two < one * 3 / 2, "two concurrent scatters took {two:?}, one took {one:?}");
        assert_eq!(transport.workers[0].idle().len(), 2);
        assert_eq!(transport.worker_stats().unwrap()[0].reconnects, 0);
    }

    /// A worker that hangs up after each reply leaves a stale idle
    /// connection: the next exchange fails on it and its one resend, on a
    /// fresh dial, succeeds.
    #[test]
    fn a_stale_idle_connection_costs_one_resend_on_a_fresh_dial() {
        let transport =
            TcpTransport::connect("g", &[fake_worker(Duration::ZERO, true)], config()).unwrap();
        assert!(scatter_once(&transport)[0].is_ok());
        // Let the worker's close land before the idle connection is reused.
        std::thread::sleep(Duration::from_millis(50));
        assert!(scatter_once(&transport)[0].is_ok());
        let stats = &transport.worker_stats().unwrap()[0];
        assert_eq!((stats.requests, stats.reconnects), (2, 1));
    }
}
