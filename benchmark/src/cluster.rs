//! Real `pegserve` servers, in-process on ephemeral loopback ports, and
//! the set-up every run repeats: bind, load the graph over the protocol,
//! connect the clients, warm up.

use crate::requests::{Request, RequestPlan};
use crate::spec::{Workload, BETA, GRAPH_NAME, MAX_LEN};
use pegserve::{Client, GraphSpec, Server, ServerConfig, ServerHandle};
use pegwire::{obj, Json};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// A coordinator and its shard workers. Dropping it shuts every server
/// down and joins its threads — on every exit path, a failed check
/// included — so no thread or socket outlives the command.
pub struct Cluster {
    pub addr: SocketAddr,
    coordinator: Option<ServerHandle>,
    workers: Vec<ServerHandle>,
}

fn spawn_server() -> Result<ServerHandle, String> {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("bind 127.0.0.1:0: {e}"))?;
    Ok(server.spawn())
}

impl Cluster {
    fn start(n_workers: usize) -> Result<Cluster, String> {
        let mut workers = Vec::with_capacity(n_workers);
        for _ in 0..n_workers {
            workers.push(spawn_server()?);
        }
        let coordinator = spawn_server()?;
        Ok(Cluster { addr: coordinator.addr, coordinator: Some(coordinator), workers })
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        // Coordinator first: its shard transport holds the connections
        // the workers' handler threads are reading from.
        for handle in self.coordinator.take().into_iter().chain(self.workers.drain(..)) {
            if let Err(e) = handle.shutdown() {
                eprintln!("pegbench: server shutdown: {e}");
            }
        }
    }
}

/// Sends `req` and returns the parsed reply, or the failure as text.
pub fn call(client: &mut Client, req: &Json) -> Result<Json, String> {
    let reply = client.request(req).map_err(|e| e.to_string())?;
    if reply.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{req} -> {reply}"));
    }
    Ok(reply)
}

/// A served graph ready for its first timed request.
pub struct Ready {
    /// One connection per closed-loop client. Declared before `cluster`
    /// so the connections close first and the servers' handler threads
    /// see EOF instead of waiting out their read poll.
    pub clients: Vec<Client>,
    /// Held for its `Drop`, which shuts the servers down.
    _cluster: Cluster,
    /// The `load_graph` reply (node and edge counts, replication factor).
    pub loaded: Json,
    /// From the first bind to the end of warm-up.
    pub setup: Duration,
}

/// Sets `workload` up from nothing: servers, `load_graph` (graph
/// generation, PEG and index build, and for a distributed graph the
/// worker hand-shake that builds each shard), client connections,
/// warm-up requests.
pub fn set_up(workload: Workload, spec: &GraphSpec, plan: &RequestPlan) -> Result<Ready, String> {
    let t0 = Instant::now();
    let cluster = Cluster::start(workload.workers())?;
    let mut clients = Vec::with_capacity(workload.clients());
    for _ in 0..workload.clients() {
        clients.push(cluster.connect()?);
    }
    let worker_addrs: Vec<Json> =
        cluster.workers.iter().map(|w| Json::Str(w.addr.to_string())).collect();
    let load = obj()
        .field("op", "load_graph")
        .field("name", GRAPH_NAME)
        .field("kind", spec.kind.as_str())
        .field("size", spec.size)
        .field("seed", spec.seed)
        .field("uncertainty", spec.uncertainty)
        .field("max_len", MAX_LEN)
        .field("beta", BETA)
        .field_opt("workers", (!worker_addrs.is_empty()).then_some(Json::Arr(worker_addrs)))
        .build();
    let loaded = call(&mut clients[0], &load)?;
    // Every connection sends the warm-up, so each has a live handler
    // thread and a warm socket before the window opens.
    for client in &mut clients {
        for Request { json, .. } in &plan.warmup {
            call(client, json)?;
        }
    }
    Ok(Ready { clients, _cluster: cluster, loaded, setup: t0.elapsed() })
}

/// Cache counters from the `stats` op.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheCounters {
    pub exec_hits: u64,
    pub exec_misses: u64,
    pub exec_bytes: u64,
    pub exec_evictions: u64,
    /// Bytes exchanged with the shard workers, both directions.
    pub worker_bytes: u64,
    /// The slower worker's median exchange latency (0 without workers).
    pub worker_rtt_p50_us: u64,
}

pub fn cache_counters(client: &mut Client) -> Result<CacheCounters, String> {
    let stats = call(client, &obj().field("op", "stats").build())?;
    let exec = stats.get("exec_cache").ok_or("stats lacks exec_cache")?;
    let n = |v: &Json, key: &str| v.get(key).and_then(Json::as_u64).unwrap_or(0);
    let graph = stats
        .get("graphs")
        .and_then(Json::as_arr)
        .and_then(|g| g.first())
        .ok_or("stats lists no graph")?;
    let workers = graph.get("workers").and_then(Json::as_arr).unwrap_or(&[]);
    Ok(CacheCounters {
        exec_hits: n(exec, "hits"),
        exec_misses: n(exec, "misses"),
        exec_bytes: n(exec, "bytes"),
        exec_evictions: n(exec, "evictions"),
        worker_bytes: workers.iter().map(|w| n(w, "bytes_tx") + n(w, "bytes_rx")).sum(),
        worker_rtt_p50_us: workers.iter().map(|w| n(w, "p50_us")).max().unwrap_or(0),
    })
}
