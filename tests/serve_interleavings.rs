//! State-machine property test for the serving layer's caches: a seeded
//! interleaving of `load_graph` / `update_graph` / `query` /
//! `query_topk` / `query_batch` / `unload_graph` against one in-process
//! server — two graph names, one sharded over two shard-worker servers
//! and one unsharded — answers every query **f64-bit-identically** to a
//! cache-free pipeline over a from-scratch rebuild of the mutated
//! reference network.
//!
//! The model keeps each loaded graph's reference network, applies every
//! mutation batch to it too, and rebuilds the entity graph and its index
//! from nothing after each batch, with a plan cache that starts empty
//! whenever the server's does. The server's execution cache gets a
//! budget of a few entries, so evictions happen alongside hits, epoch
//! flushes and unloads; queries reuse a handful of shapes under fresh
//! variable numberings and at thresholds that share quantization buckets,
//! so the cache is exercised at every step. The run must see each way a
//! query meets the cache: a hit, a first sight (run uncached), a second
//! sight (admitted), and a re-admission — a shape admitted on its first
//! query after an update or reload, because the doorkeeper outlives the
//! epoch that saw it.

use datagen::{permuted_query, random_query, QuerySpec};
use graphstore::{GraphOp, RefGraph, RefId};
use pathindex::PathIndexConfig;
use pegmatch::matcher::Match;
use pegmatch::model::PegBuilder;
use pegmatch::offline::{OfflineIndex, OfflineOptions};
use pegmatch::online::{floor_alpha, PlanCache, QueryOptions, QueryPipeline};
use pegmatch::pattern::format_pattern;
use pegmatch::query::QueryGraph;
use pegmatch::Peg;
use pegserve::{obj, Client, GraphSpec, Json, Server, ServerConfig, ServerHandle};
use pegshard::wire::encode_ops;
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

const MAX_LEN: usize = 2;
const BETA: f64 = 0.1;
const SIZE: usize = 150;
/// Thresholds in pairs that share a quantization bucket (floors 0.1,
/// 0.25 and 0.5), so a repeated shape can be served at a threshold other
/// than the one that filled its entry.
const ALPHAS: [f64; 5] = [0.1, 0.12, 0.3, 0.35, 0.6];
/// Reply cap of every threshold query: small enough that some replies
/// are truncated prefixes, which must agree too.
const LIMIT: usize = 40;
/// A handful of entries' worth, so the LRU evicts while shapes repeat.
const EXEC_CACHE_BYTES: usize = 16 << 10;

/// SplitMix64: a failing case reproduces from its seed alone.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn prob(&mut self) -> f64 {
        0.05 + 0.9 * (self.next() % 1000) as f64 / 1000.0
    }
}

fn offline_opts() -> OfflineOptions {
    OfflineOptions { index: PathIndexConfig { max_len: MAX_LEN, beta: BETA, ..Default::default() } }
}

/// One graph name the model tracks: how it is loaded, and — while it is
/// loaded — its reference network and the from-scratch rebuild of it.
struct Slot {
    name: &'static str,
    spec: GraphSpec,
    sharded: bool,
    loaded: Option<Model>,
}

/// A loaded graph as the oracle sees it: the reference network, the
/// entity graph and index rebuilt from it, and a plan cache as fresh as
/// the server's. The plan cache is part of what is modelled, not
/// bypassed: a plan answers any threshold but is costed at the one that
/// planned it, so which threshold planned a shape first decides the join
/// order, and with it the last bit of `prle`. `sighted` holds the
/// `(shape, floor)` pairs queried since the last (re)build, and
/// `topk_sighted` the shapes a top-k walked at floors of its own.
struct Model {
    refs: RefGraph,
    peg: Peg,
    offline: OfflineIndex,
    plans: Arc<PlanCache>,
    sighted: HashSet<(usize, u64)>,
    topk_sighted: HashSet<usize>,
}

impl Model {
    fn rebuild(refs: RefGraph) -> Model {
        let peg = PegBuilder::new().build(&refs).unwrap();
        let offline = OfflineIndex::build(&peg, &offline_opts()).unwrap();
        let plans = Arc::new(PlanCache::new());
        Model { refs, peg, offline, plans, sighted: HashSet::new(), topk_sighted: HashSet::new() }
    }
}

/// A mutation batch valid against `refs`: edges between live references,
/// label and weight rewrites, and pair evidence.
fn random_ops(refs: &RefGraph, rng: &mut Rng) -> Vec<GraphOp> {
    let alive: Vec<u32> =
        (0..refs.n_refs() as u32).filter(|&i| refs.ref_is_alive(RefId(i))).collect();
    let n_labels = refs.label_table().len();
    let pick = |rng: &mut Rng| RefId(alive[rng.below(alive.len())]);
    let mut ops = Vec::new();
    while ops.len() < 1 + rng.below(4) {
        let (a, b) = (pick(rng), pick(rng));
        ops.push(match rng.below(4) {
            0 if a != b => GraphOp::UpsertEdge { a, b, p: rng.prob() },
            1 => GraphOp::UpsertRef {
                r: Some(a),
                labels: vec![(rng.below(n_labels) as u16, rng.prob())],
            },
            2 if a != b => GraphOp::PairPosterior { a, b, q: rng.prob() },
            _ => GraphOp::SetSingletonWeight { r: a, weight: rng.prob() },
        });
    }
    ops
}

fn call(client: &mut Client, req: &Json) -> Json {
    let reply = client.request(req).unwrap();
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{req} -> {reply}");
    reply
}

/// The reply's `matches` against the oracle's, bit for bit.
fn assert_matches(reply: &Json, want: &[Match], ctx: &str) -> Result<(), TestCaseError> {
    let got = reply.get("matches").and_then(Json::as_arr).expect("a reply with matches");
    prop_assert_eq!(got.len(), want.len(), "{}: match count", ctx);
    for (g, w) in got.iter().zip(want) {
        let nodes: Vec<u64> = g
            .get("nodes")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(Json::as_u64)
            .collect();
        let w_nodes: Vec<u64> = w.nodes.iter().map(|e| e.0 as u64).collect();
        prop_assert_eq!(nodes, w_nodes, "{}: nodes", ctx);
        let bits = |k: &str| g.get(k).and_then(Json::as_f64).unwrap().to_bits();
        prop_assert_eq!(bits("prle"), w.prle.to_bits(), "{}: prle bits", ctx);
        prop_assert_eq!(bits("prn"), w.prn.to_bits(), "{}: prn bits", ctx);
    }
    Ok(())
}

fn exec_stats(client: &mut Client) -> Json {
    let stats = call(client, &obj().field("op", "stats").build());
    stats.get("exec_cache").cloned().expect("the cache-on server reports exec_cache")
}

fn counter(block: &Json, key: &str) -> u64 {
    block.get(key).and_then(Json::as_u64).unwrap_or_else(|| panic!("no {key} in {block}"))
}

fn spawn(config: ServerConfig) -> ServerHandle {
    Server::bind("127.0.0.1:0", config).unwrap().spawn()
}

proptest! {
    // Each case loads graphs several times and rebuilds the oracle after
    // every batch; the inner op sequence is the real cross-product.
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn interleaved_serving_ops_match_a_cache_off_rebuild(seed in 0u64..1_000_000) {
        let workers: Vec<ServerHandle> = (0..2).map(|_| spawn(ServerConfig::default())).collect();
        let worker_addrs: Vec<Json> =
            workers.iter().map(|h| Json::Str(h.addr.to_string())).collect();
        let server = spawn(ServerConfig { exec_cache_bytes: EXEC_CACHE_BYTES, ..Default::default() });
        let mut client = Client::connect(server.addr).unwrap();
        let mut rng = Rng(seed);
        let mut slots = [
            Slot {
                name: "local",
                spec: GraphSpec::new("synthetic", SIZE, seed, 0.3).unwrap(),
                sharded: false,
                loaded: None,
            },
            Slot {
                name: "dist",
                spec: GraphSpec::new("synthetic", SIZE, seed ^ 0x5eed, 0.3).unwrap(),
                sharded: true,
                loaded: None,
            },
        ];
        let n_labels = slots[0].spec.build_refs().label_table().len();
        let shapes: Vec<QueryGraph> = [(2, 1), (3, 2), (3, 3), (4, 4)]
            .iter()
            .map(|&(n, m)| random_query(QuerySpec::new(n, m), n_labels, seed.wrapping_add(n as u64 * 7 + m as u64)))
            .collect();
        let opts = QueryOptions::with_threads(1);
        let (mut queries, mut updates, mut unloads) = (0usize, 0usize, 0usize);
        let mut readmitted = 0u64;

        for step in 0..192 {
            let slot = &mut slots[rng.below(2)];
            let name = slot.name;
            let Some(Model { refs, peg, offline, plans, sighted, topk_sighted }) = &mut slot.loaded else {
                // Every op on an absent graph is a load.
                let mut load = obj()
                    .field("op", "load_graph")
                    .field("name", name)
                    .field("kind", "synthetic")
                    .field("size", SIZE)
                    .field("seed", slot.spec.seed)
                    .field("uncertainty", slot.spec.uncertainty)
                    .field("max_len", MAX_LEN)
                    .field("beta", BETA);
                if slot.sharded {
                    load = load.field("workers", Json::Arr(worker_addrs.clone()));
                }
                call(&mut client, &load.build());
                slot.loaded = Some(Model::rebuild(slot.spec.build_refs()));
                continue;
            };
            let oracle = QueryPipeline::new(peg, offline).with_plan_cache(Arc::clone(plans));
            let labels = peg.graph.label_table();
            let draw = |rng: &mut Rng| {
                let shape = rng.below(shapes.len());
                let q = permuted_query(&shapes[shape], rng.next());
                let pattern = format_pattern(&q, labels);
                (shape, q, pattern, ALPHAS[rng.below(ALPHAS.len())])
            };
            let floor_of = |alpha: f64| floor_alpha(alpha, BETA).to_bits();
            let ctx = format!("seed {seed} step {step} on {name}");
            match rng.below(10) {
                0..=3 => {
                    let (shape, q, pattern, alpha) = draw(&mut rng);
                    let admitted = counter(&exec_stats(&mut client), "admitted");
                    let reply = call(&mut client, &obj()
                        .field("op", "query")
                        .field("graph", name)
                        .field("pattern", pattern.as_str())
                        .field("alpha", alpha)
                        .field("limit", LIMIT)
                        .build());
                    let want = oracle.run_limited(&q, alpha, Some(LIMIT), &opts).unwrap();
                    assert_matches(&reply, &want.matches, &format!("{ctx}: query {pattern} @{alpha}"))?;
                    prop_assert_eq!(reply.get("truncated"), Some(&Json::Bool(want.truncated)));
                    let unseen = !topk_sighted.contains(&shape)
                        && sighted.insert((shape, floor_of(alpha)));
                    if unseen && counter(&exec_stats(&mut client), "admitted") > admitted {
                        readmitted += 1;
                    }
                    queries += 1;
                }
                4 => {
                    let (shape, q, pattern, _) = draw(&mut rng);
                    topk_sighted.insert(shape);
                    let k = 1 + rng.below(5);
                    let reply = call(&mut client, &obj()
                        .field("op", "query_topk")
                        .field("graph", name)
                        .field("pattern", pattern.as_str())
                        .field("k", k)
                        .field("min_alpha", 0.05)
                        .build());
                    let want = oracle.run_topk(&q, k, 0.05, &opts).unwrap();
                    assert_matches(&reply, &want.matches, &format!("{ctx}: top-{k} {pattern}"))?;
                    queries += 1;
                }
                5 | 6 => {
                    let items: Vec<(usize, QueryGraph, String, f64)> =
                        (0..2 + rng.below(2)).map(|_| draw(&mut rng)).collect();
                    let reply = call(&mut client, &obj()
                        .field("op", "query_batch")
                        .field("graph", name)
                        .field("queries", Json::Arr(items.iter().map(|(_, _, pattern, alpha)| {
                            obj()
                                .field("pattern", pattern.as_str())
                                .field("alpha", *alpha)
                                .field("limit", LIMIT)
                                .build()
                        }).collect()))
                        .build());
                    let results = reply.get("results").and_then(Json::as_arr).unwrap();
                    prop_assert_eq!(results.len(), items.len());
                    for (i, ((shape, q, pattern, alpha), got)) in items.iter().zip(results).enumerate() {
                        let want = oracle.run_limited(q, *alpha, Some(LIMIT), &opts).unwrap();
                        assert_matches(got, &want.matches, &format!("{ctx}: batch[{i}] {pattern} @{alpha}"))?;
                        sighted.insert((*shape, floor_of(*alpha)));
                    }
                    queries += items.len();
                }
                7 | 8 => {
                    let ops = random_ops(refs, &mut rng);
                    call(&mut client, &obj()
                        .field("op", "update_graph")
                        .field("graph", name)
                        .field("ops", encode_ops(&ops))
                        .build());
                    let mut next = refs.clone();
                    next.apply_all(&ops).unwrap();
                    slot.loaded = Some(Model::rebuild(next));
                    updates += 1;
                }
                _ => {
                    call(&mut client, &obj().field("op", "unload_graph").field("graph", name).build());
                    slot.loaded = None;
                    unloads += 1;
                }
            }
        }

        prop_assert!(queries > 0 && updates > 0 && unloads > 0, "{} {} {}", queries, updates, unloads);
        let exec = exec_stats(&mut client);
        for key in ["hits", "first_sight", "admitted", "evictions"] {
            prop_assert!(counter(&exec, key) > 0, "no {}: {}", key, exec);
        }
        prop_assert!(readmitted > 0, "no re-admission after an update or reload: {}", exec);
        server.shutdown().unwrap();
        for worker in workers {
            worker.shutdown().unwrap();
        }
    }
}
