//! Concurrent serving equivalence: many client threads hammering one
//! `pegserve` server with isomorphic-shape queries must observe results
//! bit-identical to direct `QueryPipeline::run`/`run_topk` over the same
//! graph, threshold, and thread count — and the admission layer must
//! bound concurrency with structured rejections instead of hangs.

use bench::workloads::permuted_query;
use datagen::{random_query, synthetic_refgraph, QuerySpec, SyntheticConfig};
use graphstore::RefGraph;
use pathindex::PathIndexConfig;
use pegmatch::model::PegBuilder;
use pegmatch::offline::{OfflineIndex, OfflineOptions};
use pegmatch::online::{QueryOptions, QueryPipeline};
use pegmatch::query::QueryGraph;
use pegmatch::Peg;
use pegserve::{obj, Client, GraphStore, Json, Server, ServerConfig};
use std::time::{Duration, Instant};

const GRAPH_SIZE: usize = 300;

/// The test workload, built fresh per call: the generator is
/// deterministic, so the server's copy and the direct-comparison copy are
/// the same graph.
fn build_workload() -> (Peg, OfflineIndex, RefGraph) {
    let refs = synthetic_refgraph(&SyntheticConfig::paper_with_uncertainty(GRAPH_SIZE, 0.2));
    let peg = PegBuilder::new().build(&refs).unwrap();
    let offline = OfflineIndex::build(
        &peg,
        &OfflineOptions { index: PathIndexConfig { max_len: 2, beta: 0.3, ..Default::default() } },
    )
    .unwrap();
    (peg, offline, refs)
}

fn pattern_text(q: &QueryGraph, peg: &Peg) -> String {
    pegmatch::pattern::format_pattern(q, peg.graph.label_table())
}

/// Expected matches as `(nodes, prle bits, prn bits)` — the bit-exact
/// contract the server must reproduce through the JSON round trip.
fn expected_triples(result: &[pegmatch::matcher::Match]) -> Vec<(Vec<u64>, u64, u64)> {
    result
        .iter()
        .map(|m| (m.nodes.iter().map(|e| e.0 as u64).collect(), m.prle.to_bits(), m.prn.to_bits()))
        .collect()
}

fn reply_triples(reply: &Json) -> Vec<(Vec<u64>, u64, u64)> {
    reply
        .get("matches")
        .expect("matches field")
        .as_arr()
        .expect("matches array")
        .iter()
        .map(|m| {
            (
                m.get("nodes")
                    .unwrap()
                    .as_arr()
                    .unwrap()
                    .iter()
                    .map(|n| n.as_u64().unwrap())
                    .collect(),
                m.get("prle").unwrap().as_f64().unwrap().to_bits(),
                m.get("prn").unwrap().as_f64().unwrap().to_bits(),
            )
        })
        .collect()
}

#[test]
fn concurrent_clients_match_direct_pipeline_bit_exactly() {
    let (peg, offline, _) = build_workload();
    let direct = QueryPipeline::new(&peg, &offline);
    let n_labels = peg.graph.label_table().len();

    // Two shapes, several isomorphic renumberings each — a repeated-shape
    // mix that exercises the shared plan cache under concurrency.
    let mut cases: Vec<(String, QueryGraph)> = Vec::new();
    for shape_seed in 0..2u64 {
        let base = random_query(QuerySpec::new(4, 4), n_labels, shape_seed);
        for r in 0..4u64 {
            let q = permuted_query(&base, shape_seed * 100 + r);
            cases.push((pattern_text(&q, &peg), q));
        }
    }
    let alpha = 0.3;

    let (server_peg, server_offline, refs) = build_workload();
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            max_sessions: 3,
            queue_depth: 32,
            deadline: Duration::from_secs(30),
            ..Default::default()
        },
    )
    .unwrap();
    server.insert_graph(
        "g",
        refs,
        GraphStore::Unsharded { peg: server_peg, offline: server_offline },
    );
    let handle = server.spawn();
    let addr = handle.addr;

    for threads in [1usize, 0] {
        let opts = QueryOptions::with_threads(threads);
        // Ground truth from the direct pipeline (no cache needed; the
        // plan cache never changes answers).
        let expected: Vec<Vec<(Vec<u64>, u64, u64)>> = cases
            .iter()
            .map(|(_, q)| expected_triples(&direct.run(q, alpha, &opts).unwrap().matches))
            .collect();
        let expected_topk: Vec<Vec<(Vec<u64>, u64, u64)>> = cases
            .iter()
            .map(|(_, q)| expected_triples(&direct.run_topk(q, 5, 1e-9, &opts).unwrap().matches))
            .collect();

        // Four client threads replay overlapping slices concurrently.
        std::thread::scope(|scope| {
            let (cases, expected, expected_topk) = (&cases, &expected, &expected_topk);
            let handles: Vec<_> = (0..4usize)
                .map(|offset| {
                    scope.spawn(move || {
                        let mut client = Client::connect(addr).unwrap();
                        for i in 0..cases.len() {
                            let idx = (i + offset) % cases.len();
                            let reply = client
                                .request(
                                    &obj()
                                        .field("op", "query")
                                        .field("pattern", cases[idx].0.as_str())
                                        .field("alpha", alpha)
                                        .field("threads", threads)
                                        .build(),
                                )
                                .unwrap();
                            assert_eq!(
                                reply.get("ok"),
                                Some(&Json::Bool(true)),
                                "threads={threads} case={idx}: {reply}"
                            );
                            assert_eq!(
                                reply_triples(&reply),
                                expected[idx],
                                "threads={threads} case={idx} must be bit-identical"
                            );
                            let reply = client
                                .request(
                                    &obj()
                                        .field("op", "query_topk")
                                        .field("pattern", cases[idx].0.as_str())
                                        .field("k", 5usize)
                                        .field("threads", threads)
                                        .build(),
                                )
                                .unwrap();
                            assert_eq!(
                                reply.get("ok"),
                                Some(&Json::Bool(true)),
                                "topk threads={threads} case={idx}: {reply}"
                            );
                            assert_eq!(
                                reply_triples(&reply),
                                expected_topk[idx],
                                "topk threads={threads} case={idx} must be bit-identical"
                            );
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
    }

    // The repeated-shape mix shared one plan per shape: 2 misses total
    // (plus any concurrent first-plan races), everything else hits.
    let stats =
        Client::connect(addr).unwrap().request(&obj().field("op", "stats").build()).unwrap();
    let cache = stats.get("graphs").unwrap().as_arr().unwrap()[0].get("plan_cache").unwrap();
    let hit_rate = cache.get("hit_rate").unwrap().as_f64().unwrap();
    assert!(hit_rate > 0.8, "plan cache must absorb the repeated-shape mix: {stats}");
    let admission = stats.get("admission").unwrap();
    assert!(
        admission.get("peak_running").unwrap().as_usize().unwrap() <= 3,
        "admission bound respected: {stats}"
    );
    assert_eq!(admission.get("rejected_overloaded").unwrap().as_u64(), Some(0), "{stats}");

    handle.shutdown().unwrap();
}

#[test]
fn admission_limits_reject_with_structured_errors() {
    let (peg, offline, refs) = build_workload();
    // One session, no queue, short deadline: a held session forces every
    // concurrent request into an immediate structured rejection.
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            max_sessions: 1,
            queue_depth: 0,
            deadline: Duration::from_millis(100),
            allow_debug_sleep: true,
            ..Default::default()
        },
    )
    .unwrap();
    server.insert_graph("g", refs, GraphStore::Unsharded { peg, offline });
    let handle = server.spawn();
    let addr = handle.addr;

    let holder = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client
            .request(
                &obj()
                    .field("op", "query")
                    .field("pattern", "(x:l0)-(y:l1)")
                    .field("alpha", 0.3)
                    .field("debug_sleep_ms", 800u64)
                    .build(),
            )
            .unwrap()
    });
    // Wait until the holder's session occupies the only slot.
    let mut probe = Client::connect(addr).unwrap();
    loop {
        let stats = probe.request(&obj().field("op", "stats").build()).unwrap();
        if stats.get("admission").unwrap().get("running").unwrap().as_u64() == Some(1) {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let reply = probe
        .request(
            &obj()
                .field("op", "query")
                .field("pattern", "(x:l0)-(y:l1)")
                .field("alpha", 0.3)
                .build(),
        )
        .unwrap();
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "{reply}");
    assert_eq!(reply.get("error").and_then(Json::as_str), Some("overloaded"), "{reply}");
    assert!(reply.get("message").is_some(), "{reply}");

    // The held query itself completes fine.
    let held = holder.join().unwrap();
    assert_eq!(held.get("ok"), Some(&Json::Bool(true)), "{held}");

    // After release, the same request is admitted again.
    let reply = probe
        .request(
            &obj()
                .field("op", "query")
                .field("pattern", "(x:l0)-(y:l1)")
                .field("alpha", 0.3)
                .build(),
        )
        .unwrap();
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");

    let stats = probe.request(&obj().field("op", "stats").build()).unwrap();
    let admission = stats.get("admission").unwrap();
    assert!(admission.get("rejected_overloaded").unwrap().as_u64().unwrap() >= 1, "{stats}");
    handle.shutdown().unwrap();
}

#[test]
fn queued_requests_time_out_at_the_deadline() {
    let (peg, offline, refs) = build_workload();
    // One session, one queue slot, 100ms deadline: a queued request under
    // a long-held session times out with a structured reply — it never
    // hangs for the full hold.
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            max_sessions: 1,
            queue_depth: 1,
            deadline: Duration::from_millis(100),
            allow_debug_sleep: true,
            ..Default::default()
        },
    )
    .unwrap();
    server.insert_graph("g", refs, GraphStore::Unsharded { peg, offline });
    let handle = server.spawn();
    let addr = handle.addr;

    let holder = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client
            .request(
                &obj()
                    .field("op", "query")
                    .field("pattern", "(x:l0)-(y:l1)")
                    .field("alpha", 0.3)
                    .field("debug_sleep_ms", 700u64)
                    .build(),
            )
            .unwrap()
    });
    let mut probe = Client::connect(addr).unwrap();
    loop {
        let stats = probe.request(&obj().field("op", "stats").build()).unwrap();
        if stats.get("admission").unwrap().get("running").unwrap().as_u64() == Some(1) {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let t0 = std::time::Instant::now();
    let reply = probe
        .request(
            &obj()
                .field("op", "query")
                .field("pattern", "(x:l0)-(y:l1)")
                .field("alpha", 0.3)
                .build(),
        )
        .unwrap();
    let waited = t0.elapsed();
    assert_eq!(reply.get("error").and_then(Json::as_str), Some("timeout"), "{reply}");
    assert!(waited >= Duration::from_millis(100), "waited the deadline: {waited:?}");
    assert!(waited < Duration::from_millis(600), "rejected before the hold ended: {waited:?}");
    assert_eq!(holder.join().unwrap().get("ok"), Some(&Json::Bool(true)));
    handle.shutdown().unwrap();
}

#[test]
fn sharded_server_matches_direct_pipeline_bit_exactly() {
    // A server whose graph is loaded sharded (3 shards) must answer every
    // query and top-k request bit-identically to the direct *unsharded*
    // pipeline — scatter-gather retrieval is invisible over the wire.
    let (peg, offline, _) = build_workload();
    let direct = QueryPipeline::new(&peg, &offline);
    let n_labels = peg.graph.label_table().len();

    let (server_peg, _, refs) = build_workload();
    let store = pegshard::ShardedGraphStore::build(
        &refs,
        server_peg,
        &OfflineOptions { index: PathIndexConfig { max_len: 2, beta: 0.3, ..Default::default() } },
        3,
    )
    .unwrap();
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    server.insert_graph("g", refs, GraphStore::Sharded(store));
    let handle = server.spawn();
    let addr = handle.addr;

    let mut cases: Vec<(String, QueryGraph)> = Vec::new();
    for shape_seed in 0..2u64 {
        let base = random_query(QuerySpec::new(4, 4), n_labels, shape_seed);
        for r in 0..2u64 {
            let q = permuted_query(&base, shape_seed * 100 + r);
            cases.push((pattern_text(&q, &peg), q));
        }
    }
    let alpha = 0.3;
    for threads in [1usize, 0] {
        let opts = QueryOptions::with_threads(threads);
        let expected: Vec<Vec<(Vec<u64>, u64, u64)>> = cases
            .iter()
            .map(|(_, q)| expected_triples(&direct.run(q, alpha, &opts).unwrap().matches))
            .collect();
        let expected_topk: Vec<Vec<(Vec<u64>, u64, u64)>> = cases
            .iter()
            .map(|(_, q)| expected_triples(&direct.run_topk(q, 5, 1e-9, &opts).unwrap().matches))
            .collect();
        std::thread::scope(|scope| {
            let (cases, expected, expected_topk) = (&cases, &expected, &expected_topk);
            let handles: Vec<_> = (0..3usize)
                .map(|offset| {
                    scope.spawn(move || {
                        let mut client = Client::connect(addr).unwrap();
                        for i in 0..cases.len() {
                            let idx = (i + offset) % cases.len();
                            let reply = client
                                .request(
                                    &obj()
                                        .field("op", "query")
                                        .field("pattern", cases[idx].0.as_str())
                                        .field("alpha", alpha)
                                        .field("threads", threads)
                                        .build(),
                                )
                                .unwrap();
                            assert_eq!(
                                reply.get("ok"),
                                Some(&Json::Bool(true)),
                                "threads={threads} case={idx}: {reply}"
                            );
                            assert_eq!(
                                reply_triples(&reply),
                                expected[idx],
                                "sharded threads={threads} case={idx} must be bit-identical"
                            );
                            let reply = client
                                .request(
                                    &obj()
                                        .field("op", "query_topk")
                                        .field("pattern", cases[idx].0.as_str())
                                        .field("k", 5usize)
                                        .field("threads", threads)
                                        .build(),
                                )
                                .unwrap();
                            assert_eq!(
                                reply_triples(&reply),
                                expected_topk[idx],
                                "sharded topk threads={threads} case={idx}"
                            );
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
    }

    // Stats surface the shard count.
    let mut probe = Client::connect(addr).unwrap();
    let stats = probe.request(&obj().field("op", "stats").build()).unwrap();
    let g = &stats.get("graphs").unwrap().as_arr().unwrap()[0];
    assert_eq!(g.get("shards").unwrap().as_usize(), Some(3), "{stats}");

    // unload_graph reclaims the sharded store; further queries see
    // unknown_graph and a repeated unload sees not_found.
    let reply =
        probe.request(&obj().field("op", "unload_graph").field("graph", "g").build()).unwrap();
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
    assert_eq!(reply.get("shards").unwrap().as_usize(), Some(3), "{reply}");
    let reply =
        probe.request(&obj().field("op", "query").field("pattern", "(x:l0)").build()).unwrap();
    assert_eq!(reply.get("error").and_then(Json::as_str), Some("unknown_graph"), "{reply}");
    let reply =
        probe.request(&obj().field("op", "unload_graph").field("graph", "g").build()).unwrap();
    assert_eq!(reply.get("error").and_then(Json::as_str), Some("not_found"), "{reply}");
    handle.shutdown().unwrap();
}

/// Every peg socket runs `TCP_NODELAY` and sends each message in one
/// framed write. A regression on the client or the server brings back the
/// Nagle + delayed-ACK stall (~40 ms per exchange), which a 10 ms median
/// over 200 `ping`s cannot miss.
#[test]
fn ping_round_trips_stay_under_the_no_nagle_ceiling() {
    let handle = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap().spawn();
    let mut client = Client::connect(handle.addr).unwrap();
    let ping = obj().field("op", "ping").build();
    let mut round_trips: Vec<Duration> = (0..200)
        .map(|_| {
            let t0 = Instant::now();
            let reply = client.request(&ping).unwrap();
            assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
            t0.elapsed()
        })
        .collect();
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(median < Duration::from_millis(10), "median ping {median:?}");
    drop(client);
    handle.shutdown().unwrap();
}
