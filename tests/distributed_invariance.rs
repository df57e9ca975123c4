//! The distributed tentpole gate: a coordinator scattering retrieval over
//! shard-worker processes is **f64-bit-exact** against the unsharded
//! pipeline — for 2 and 3 workers, across `run` / `run_limited` /
//! `run_topk` and threads ∈ {1, 0}, and for `query_batch` through a
//! coordinator server — and a worker lost mid-query yields a
//! structured `shard_unavailable` error within the transport deadline,
//! never a hang, while the coordinator stays serviceable for its other
//! graphs.
//!
//! Workers here are real `pegserve` servers on loopback TCP (spawned
//! in-process so the test can kill them deterministically); the CI e2e
//! smoke drives the same protocol through separate OS processes via
//! `pegcli shard-worker`.

use pathindex::PathIndexConfig;
use pegmatch::error::PegError;
use pegmatch::matcher::Match;
use pegmatch::model::PegBuilder;
use pegmatch::offline::{OfflineIndex, OfflineOptions};
use pegmatch::online::{CandidateSource, QueryOptions, QueryPipeline};
use pegmatch::query::QueryGraph;
use pegmatch::Peg;
use pegserve::{obj, Client, GraphSpec, Json, Server, ServerConfig, ServerHandle};
use pegshard::{ShardedGraphStore, TcpTransport, TcpTransportConfig};
use std::time::{Duration, Instant};

fn spec() -> GraphSpec {
    GraphSpec { kind: "synthetic".into(), size: 250, seed: 42, uncertainty: 0.3 }
}

const MAX_LEN: usize = 2;
const BETA: f64 = 0.1;

fn offline_opts() -> OfflineOptions {
    OfflineOptions { index: PathIndexConfig { max_len: MAX_LEN, beta: BETA, ..Default::default() } }
}

fn full_peg(spec: &GraphSpec) -> Peg {
    PegBuilder::new().build(&spec.build_refs()).unwrap()
}

fn spawn_workers(n: usize) -> (Vec<ServerHandle>, Vec<String>) {
    let handles: Vec<ServerHandle> = (0..n)
        .map(|_| Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap().spawn())
        .collect();
    let addrs = handles.iter().map(|h| h.addr.to_string()).collect();
    (handles, addrs)
}

fn connect_store(spec: &GraphSpec, addrs: &[String], io_timeout: Duration) -> ShardedGraphStore {
    let peg = full_peg(spec);
    let config = TcpTransportConfig { io_timeout, ..Default::default() };
    let transport = TcpTransport::connect("dist", addrs, config).unwrap();
    let opts = offline_opts();
    ShardedGraphStore::connect(peg, &opts, transport, |s, n| {
        spec.shard_load_json("dist", &opts.index, s, n)
    })
    .unwrap()
}

/// A coordinator server holding the spec's graph twice — unsharded as
/// `local`, and as `dist` over the workers at `addrs`, loaded through the
/// protocol — plus a client connected to it.
fn spawn_coordinator(spec: &GraphSpec, addrs: &[String]) -> (ServerHandle, Client) {
    let coordinator = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let peg = full_peg(spec);
    let offline = OfflineIndex::build(&peg, &offline_opts()).unwrap();
    coordinator.insert_graph("local", peg, offline);
    let coord = coordinator.spawn();
    let mut client = Client::connect(coord.addr).unwrap();
    let load = obj()
        .field("op", "load_graph")
        .field("name", "dist")
        .field("kind", spec.kind.as_str())
        .field("size", spec.size)
        .field("seed", spec.seed)
        .field("uncertainty", spec.uncertainty)
        .field("max_len", MAX_LEN)
        .field("beta", BETA)
        .field("workers", Json::Arr(addrs.iter().map(|a| Json::Str(a.clone())).collect()))
        .field("worker_timeout_ms", 3000usize)
        .build();
    let reply = client.request(&load).unwrap();
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
    assert_eq!(reply.get("shards").and_then(Json::as_usize), Some(addrs.len()));
    assert!(reply.get("workers").and_then(Json::as_arr).is_some(), "{reply}");
    (coord, client)
}

fn assert_bit_identical(got: &[Match], want: &[Match], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: match count");
    for (x, y) in got.iter().zip(want) {
        assert_eq!(x.nodes, y.nodes, "{ctx}: nodes");
        assert_eq!(x.prle.to_bits(), y.prle.to_bits(), "{ctx}: prle bits");
        assert_eq!(x.prn.to_bits(), y.prn.to_bits(), "{ctx}: prn bits");
    }
}

#[test]
fn distributed_execution_matches_unsharded_bitwise() {
    let spec = spec();
    let peg = full_peg(&spec);
    let offline = OfflineIndex::build(&peg, &offline_opts()).unwrap();
    let plain = QueryPipeline::new(&peg, &offline);
    let n_labels = peg.graph.label_table().len() as u16;
    let queries: Vec<QueryGraph> = vec![
        QueryGraph::path(&[graphstore::Label(0), graphstore::Label(1)]).unwrap(),
        QueryGraph::path(&[
            graphstore::Label(0),
            graphstore::Label(1),
            graphstore::Label(2 % n_labels),
        ])
        .unwrap(),
        QueryGraph::star(graphstore::Label(0), &[graphstore::Label(1), graphstore::Label(1)])
            .unwrap(),
        QueryGraph::cycle(&[
            graphstore::Label(0),
            graphstore::Label(1),
            graphstore::Label(2 % n_labels),
        ])
        .unwrap(),
    ];
    for n_workers in [2usize, 3] {
        let (handles, addrs) = spawn_workers(n_workers);
        let store = connect_store(&spec, &addrs, Duration::from_secs(30));
        assert_eq!(store.n_shards(), n_workers);
        assert_eq!(
            store.stats().per_shard.iter().map(|s| s.owned_nodes).sum::<usize>(),
            peg.graph.n_nodes(),
            "workers own a partition of the graph"
        );

        // Planner estimates over the wire-merged histogram are
        // bit-identical to the unsharded index's — the precondition for
        // identical plans.
        for a in 0..n_labels {
            for alpha in [0.05, 0.3] {
                let labels = [graphstore::Label(a), graphstore::Label((a + 1) % n_labels)];
                assert_eq!(
                    store.estimate_path_count(&labels, alpha).to_bits(),
                    offline.estimate_path_count(&labels, alpha).to_bits(),
                    "estimate bits for {labels:?} at {alpha}"
                );
            }
        }

        let pipe = store.pipeline();
        for (qi, q) in queries.iter().enumerate() {
            for threads in [1usize, 0] {
                let qopts = QueryOptions::with_threads(threads);
                let ctx = format!("q{qi} workers={n_workers} threads={threads}");
                for alpha in [0.05, 0.2, 0.5] {
                    let want = plain.run(q, alpha, &qopts).unwrap();
                    let got = pipe.run(q, alpha, &qopts).unwrap();
                    assert_bit_identical(&got.matches, &want.matches, &format!("{ctx} α={alpha}"));
                    assert_eq!(got.stats.raw_counts, want.stats.raw_counts, "{ctx} raw counts");
                    assert_eq!(
                        got.stats.context_counts, want.stats.context_counts,
                        "{ctx} context counts"
                    );
                }
                let want = plain.run_limited(q, 0.05, Some(3), &qopts).unwrap();
                let got = pipe.run_limited(q, 0.05, Some(3), &qopts).unwrap();
                assert_bit_identical(&got.matches, &want.matches, &format!("{ctx} limited"));
                assert_eq!(got.truncated, want.truncated, "{ctx} truncated flag");

                let want = plain.run_topk(q, 5, 1e-6, &qopts).unwrap();
                let got = pipe.run_topk(q, 5, 1e-6, &qopts).unwrap();
                assert_bit_identical(&got.matches, &want.matches, &format!("{ctx} topk"));
            }
        }

        // The transport actually carried the scatters: every worker
        // answered requests and shipped bytes.
        let ws = store.worker_stats().expect("tcp transport reports worker stats");
        assert_eq!(ws.len(), n_workers);
        for w in &ws {
            assert!(w.requests > 1, "worker {} served {} requests", w.addr, w.requests);
            assert!(w.bytes_tx > 0 && w.bytes_rx > 0, "bytes counted");
            assert_eq!(w.reconnects, 0, "healthy run needs no reconnects");
        }

        store.release_workers();
        for h in handles {
            h.shutdown().unwrap();
        }
    }
}

/// `(nodes, [prle, prn, prob] bits)` per match of a `query` reply or of
/// one `query_batch` result item.
fn reply_match_bits(item: &Json) -> Vec<(String, [u64; 3])> {
    let matches = item.get("matches").and_then(Json::as_arr).expect("matches array");
    matches
        .iter()
        .map(|m| {
            let bits = |k: &str| m.get(k).unwrap().as_f64().unwrap().to_bits();
            (m.get("nodes").unwrap().to_string(), [bits("prle"), bits("prn"), bits("prob")])
        })
        .collect()
}

#[test]
fn distributed_query_batch_matches_single_queries_and_unsharded_bitwise() {
    let (worker_handles, addrs) = spawn_workers(2);
    let (coord, mut client) = spawn_coordinator(&spec(), &addrs);
    let mut request = |req: Json| {
        let reply = client.request(&req).unwrap();
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{req}: {reply}");
        reply
    };
    // Repeated shapes and thresholds inside one batch included: items run
    // through the same plan and execution caches single queries do.
    let items = [
        ("(x:l0)-(y:l1)", 0.2),
        ("(x:l0)-(y:l1), (y)-(z:l0)", 0.05),
        ("(x:l0)-(y:l1)", 0.5),
        ("(x:l1)", 0.4),
        ("(x:l0)-(y:l1), (y)-(z:l0)", 0.05),
    ];
    let item =
        |&(pattern, alpha): &(&str, f64)| obj().field("pattern", pattern).field("alpha", alpha);
    let mut batch = |graph: &str| {
        let queries = Json::Arr(items.iter().map(|i| item(i).build()).collect());
        let req = obj().field("op", "query_batch").field("graph", graph);
        let reply = request(req.field("queries", queries).build());
        reply.get("results").and_then(Json::as_arr).expect("results array").to_vec()
    };
    let (dist, local) = (batch("dist"), batch("local"));
    assert_eq!(dist.len(), items.len());
    assert!(!reply_match_bits(&local[0]).is_empty(), "the gate must compare something");
    for (i, it) in items.iter().enumerate() {
        let single = request(item(it).field("op", "query").field("graph", "dist").build());
        let want = reply_match_bits(&local[i]);
        assert_eq!(reply_match_bits(&dist[i]), want, "item {i}: batch over workers vs unsharded");
        assert_eq!(reply_match_bits(&single), want, "item {i}: single query vs unsharded");
    }

    coord.shutdown().unwrap();
    for h in worker_handles {
        h.shutdown().unwrap();
    }
}

#[test]
fn killed_worker_is_a_structured_error_within_the_deadline_not_a_hang() {
    let spec = spec();
    let (mut handles, addrs) = spawn_workers(2);
    // Tight wire deadline so the failure path is provably bounded.
    let store = connect_store(&spec, &addrs, Duration::from_secs(3));
    let q = QueryGraph::path(&[graphstore::Label(0), graphstore::Label(1)]).unwrap();
    let qopts = QueryOptions::with_threads(1);
    assert!(!store.pipeline().run(&q, 0.2, &qopts).unwrap().matches.is_empty());

    // Kill worker 1 (shard 1) and query again: the scatter must fail with
    // a structured ShardUnavailable naming the dead shard — not hang, not
    // return partial results.
    handles.remove(1).shutdown().unwrap();
    let t0 = Instant::now();
    let err = store.pipeline().run(&q, 0.2, &qopts).unwrap_err();
    let elapsed = t0.elapsed();
    match &err {
        PegError::ShardUnavailable { shard, detail } => {
            assert_eq!(*shard, 1, "the dead worker's shard is named: {detail}");
        }
        other => panic!("expected ShardUnavailable, got {other}"),
    }
    // One reconnect-once retry against a closed port is near-instant;
    // the deadline bound is generous headroom, not a race.
    assert!(elapsed < Duration::from_secs(20), "failed in {elapsed:?}, not a hang");

    handles.remove(0).shutdown().unwrap();
}

#[test]
fn coordinator_server_stays_serviceable_when_a_worker_dies() {
    let spec = spec();
    let (mut worker_handles, addrs) = spawn_workers(2);

    // Coordinator with a tiny *unsharded* graph preloaded alongside the
    // distributed one.
    let (coord, mut client) = spawn_coordinator(&spec, &addrs);
    let peg = full_peg(&spec);

    // Distributed replies are bit-identical to the direct unsharded
    // pipeline (the reply text carries the shortest-round-trip f64s).
    let q = r#"{"op":"query","graph":"dist","pattern":"(x:l0)-(y:l1)","alpha":0.2}"#;
    let reply = client.request(&Json::parse(q).unwrap()).unwrap();
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
    let direct_offline = OfflineIndex::build(&peg, &offline_opts()).unwrap();
    let direct = QueryPipeline::new(&peg, &direct_offline);
    let query = pegmatch::pattern::parse_pattern("(x:l0)-(y:l1)", peg.graph.label_table()).unwrap();
    let want = direct.run(&query, 0.2, &QueryOptions::with_threads(1)).unwrap();
    let got = reply.get("matches").unwrap().as_arr().unwrap();
    assert_eq!(got.len(), want.matches.len());
    for (g, w) in got.iter().zip(&want.matches) {
        assert_eq!(
            g.get("prle").unwrap().as_f64().unwrap().to_bits(),
            w.prle.to_bits(),
            "server-distributed prle bits match the direct pipeline"
        );
        assert_eq!(g.get("prn").unwrap().as_f64().unwrap().to_bits(), w.prn.to_bits());
    }

    // Stats carry the per-worker counters.
    let stats = client.request(&Json::parse(r#"{"op":"stats"}"#).unwrap()).unwrap();
    let graphs = stats.get("graphs").unwrap().as_arr().unwrap();
    let dist = graphs
        .iter()
        .find(|g| g.get("name").and_then(Json::as_str) == Some("dist"))
        .expect("distributed graph listed");
    let workers = dist.get("workers").unwrap().as_arr().unwrap();
    assert_eq!(workers.len(), 2);
    for w in workers {
        assert!(w.get("requests").unwrap().as_u64().unwrap() >= 1, "{w}");
        assert!(w.get("bytes_tx").unwrap().as_u64().unwrap() > 0, "{w}");
    }

    // Seen a second time, the shape is admitted: its floor base now sits
    // in the server's execution cache.
    let reply = client.request(&Json::parse(q).unwrap()).unwrap();
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");

    // Kill one worker. The shape+alpha served above is still answerable —
    // a hit never scatters, so the cached band survives worker loss...
    worker_handles.remove(1).shutdown().unwrap();
    let reply = client.request(&Json::parse(q).unwrap()).unwrap();
    assert_eq!(
        reply.get("ok"),
        Some(&Json::Bool(true)),
        "cached band outlives the worker: {reply}"
    );
    // ...but an alpha in a *fresh* quantization bucket must scatter, and
    // answers with a structured shard_unavailable (the protocol code, not
    // a hang or a connection drop)...
    let q_fresh = r#"{"op":"query","graph":"dist","pattern":"(x:l0)-(y:l1)","alpha":0.7}"#;
    let reply = client.request(&Json::parse(q_fresh).unwrap()).unwrap();
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "{reply}");
    assert_eq!(reply.get("error").and_then(Json::as_str), Some("shard_unavailable"), "{reply}");

    // ...and the coordinator remains fully serviceable for the local
    // graph on the same connection.
    let reply = client
        .request(
            &Json::parse(r#"{"op":"query","graph":"local","pattern":"(x:l0)-(y:l1)","alpha":0.2}"#)
                .unwrap(),
        )
        .unwrap();
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");

    // unload_graph releases the surviving worker's shard state: a direct
    // shard_retrieve against it now reports unknown_graph.
    let reply =
        client.request(&Json::parse(r#"{"op":"unload_graph","graph":"dist"}"#).unwrap()).unwrap();
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
    let mut worker_client = Client::connect(worker_handles[0].addr).unwrap();
    let reply = worker_client
        .request(
            &Json::parse(
                r#"{"op":"shard_retrieve","graph":"dist","alpha":0.5,"labels":[0],"edges":[],"paths":[[0]]}"#,
            )
            .unwrap(),
        )
        .unwrap();
    assert_eq!(reply.get("error").and_then(Json::as_str), Some("unknown_graph"), "{reply}");

    worker_handles.remove(0).shutdown().unwrap();
    coord.shutdown().unwrap();
}

#[test]
fn worker_survives_a_vanishing_coordinator() {
    // A coordinator that disappears mid-connection (process death, EPIPE
    // on its socket) must not wedge or kill the worker: the handler
    // thread sees the closed stream and exits; the accept loop keeps
    // serving new coordinators.
    use std::io::Write as _;

    let (mut handles, addrs) = spawn_workers(1);
    // "Coordinator" 1: writes half a request, then vanishes.
    {
        let mut stream = std::net::TcpStream::connect(&addrs[0]).unwrap();
        stream.write_all(br#"{"op":"shard_load","kind":"synth"#).unwrap();
        stream.flush().unwrap();
        // Dropped here: connection resets under the worker's reader.
    }
    // "Coordinator" 2 connects fresh and gets full service.
    let mut client = Client::connect(handles[0].addr).unwrap();
    let pong = client.request(&Json::parse(r#"{"op":"ping"}"#).unwrap()).unwrap();
    assert_eq!(pong.get("ok"), Some(&Json::Bool(true)));
    // And the worker still shuts down cleanly (no zombie).
    let bye = client.request(&Json::parse(r#"{"op":"shutdown"}"#).unwrap()).unwrap();
    assert_eq!(bye.get("ok"), Some(&Json::Bool(true)));
    handles.remove(0).shutdown().unwrap();
}
