//! Trace determinism: an `explain` reply is a pure function of the
//! request. Once the shared stripper removes wall clocks, trace ids,
//! and plan-cache provenance, everything left — matches, plan summary,
//! pipeline counters, scatter stats, and the full span tree (names,
//! nesting, tag keys, non-timing tag values) — must be byte-identical
//! across independent server runs, across `threads` 1 vs 0 (parallel
//! execution measures inside each unit and attaches in index order, so
//! the tree never depends on scheduling), and across 1 vs 3 shards
//! within a dimension. The `scatter` block is request-scoped the same
//! way: it describes the explained request's own scatter, or is absent.

mod common;

use datagen::{synthetic_refgraph, SyntheticConfig};
use pathindex::PathIndexConfig;
use pegmatch::model::PegBuilder;
use pegmatch::offline::{OfflineIndex, OfflineOptions};
use pegserve::{Client, Json, Server, ServerConfig, ServerHandle};
use pegshard::ShardedGraphStore;

const GRAPH_SIZE: usize = 300;

fn spawn_server(shards: usize, exec_cache_bytes: usize) -> ServerHandle {
    let refs = synthetic_refgraph(&SyntheticConfig::paper_with_uncertainty(GRAPH_SIZE, 0.2));
    let peg = PegBuilder::new().build(&refs).unwrap();
    let opts =
        OfflineOptions { index: PathIndexConfig { max_len: 2, beta: 0.3, ..Default::default() } };
    let server =
        Server::bind("127.0.0.1:0", ServerConfig { exec_cache_bytes, ..Default::default() })
            .unwrap();
    if shards > 1 {
        let store = ShardedGraphStore::build(peg, &opts, shards).unwrap();
        server.insert_sharded_graph("g", store, None);
    } else {
        let offline = OfflineIndex::build(&peg, &opts).unwrap();
        server.insert_graph("g", peg, offline);
    }
    server.spawn()
}

fn explain_line(threads: usize) -> String {
    format!(
        r#"{{"op":"explain","pattern":"(x:l0)-(y:l1), (y)-(z:l0)","alpha":0.3,"limit":5,"threads":{threads}}}"#
    )
}

/// One run: a fresh server answering the explain request at `threads`
/// 1 then 0, each reply checked ok, structurally probed, and stripped.
fn run_once(shards: usize) -> Vec<String> {
    // Exec cache off: a warm floor retrieval legitimately rewires the
    // traced request (the `cache=hit` re-filter span replaces the
    // retrieve stage), and this test compares requests that would
    // otherwise differ only in cache warmth.
    let handle = spawn_server(shards, 0);
    let mut client = Client::connect(handle.addr).unwrap();
    let replies: Vec<String> = [1usize, 0]
        .iter()
        .map(|&threads| {
            let raw = client.request_line(&explain_line(threads)).unwrap();
            let parsed = Json::parse(&raw).unwrap();
            assert_eq!(
                parsed.get("ok"),
                Some(&Json::Bool(true)),
                "explain failed (shards {shards}): {raw}"
            );
            // The trace must reach below the stage level: per-path spans
            // locally, per-(shard,path) scatter units when sharded.
            assert!(raw.contains(r#""name":"retrieve""#), "no retrieve span: {raw}");
            let leaf = if shards > 1 { r#""name":"unit""# } else { r#""name":"path""# };
            assert!(raw.contains(leaf), "missing {leaf} span (shards {shards}): {raw}");
            common::canonical(&parsed).to_string()
        })
        .collect();
    handle.shutdown().unwrap();
    replies
}

#[test]
fn explain_replies_are_deterministic_across_runs_and_threads() {
    for shards in [1usize, 3] {
        let a = run_once(shards);
        let b = run_once(shards);
        assert_eq!(a, b, "shards {shards}: explain drifted across runs");
        assert_eq!(a[0], a[1], "shards {shards}: threads=1 and threads=0 disagree");
    }
}

#[test]
fn explain_scatter_block_describes_its_own_request_or_is_absent() {
    let handle = spawn_server(2, pegmatch::online::DEFAULT_EXEC_CACHE_BYTES);
    let mut client = Client::connect(handle.addr).unwrap();
    let mut request = |line: &str| {
        let reply = Json::parse(&client.request_line(line).unwrap()).unwrap();
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{line}: {reply}");
        reply
    };
    let explain_b = explain_line(1);

    // Cold: B scatters, and the block carries B's own gather counts.
    let first = request(&explain_b);
    let scatter = first.get("scatter").expect("a cold sharded explain scattered");
    assert_eq!(scatter.get("per_shard_raw").and_then(Json::as_arr).map(|a| a.len()), Some(2));
    let raw_counts = first.get("pipeline").and_then(|p| p.get("raw_counts")).unwrap();
    let raw: f64 = raw_counts.as_arr().unwrap().iter().map(|c| c.as_f64().unwrap()).sum();
    assert_eq!(scatter.get("raw_distinct").and_then(Json::as_f64), Some(raw));

    // B's second sight admits it to the execution cache.
    request(&explain_b);

    // Another request scatters in between...
    request(r#"{"op":"query","pattern":"(x:l1)-(y:l0)","alpha":0.3}"#);

    // ...and B again is an execution-cache hit: it never scattered, so
    // it must not report the other request's scatter as its own.
    let second = request(&explain_b);
    let pipeline = second.get("pipeline").unwrap();
    assert_eq!(pipeline.get("exec_cache_hit"), Some(&Json::Bool(true)), "{second}");
    assert!(second.get("scatter").is_none(), "stale scatter block: {second}");
    handle.shutdown().unwrap();
}
