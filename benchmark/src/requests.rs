//! Deterministic request lists: every workload's warm-up and timed
//! requests as a pure function of `(workload, seed, sizes)`.
//!
//! The *population* of each workload — which shapes at which thresholds —
//! is fixed, and so is the graph (see `check::graph_spec`); the seed
//! decides the order of the requests, the variable numbering of every
//! query text, and the mutation batches. So two seeds send different
//! lines, but a median over one run means the same thing under both.

use crate::rng::Rng;
use crate::spec::{Sizing, Workload, GRAPH_NAME, N_LABELS, QUERIES_PER_UPDATE};
use datagen::permuted_query;
use graphstore::{GraphOp, Label, LabelTable, RefGraph, RefId};
use pegmatch::pattern::format_pattern;
use pegmatch::query::{QNode, QueryGraph};
use pegserve::server::MAX_RESULT_MATCHES;
use pegshard::wire::encode_ops;
use pegwire::{obj, Json};
use std::collections::HashSet;
use std::sync::OnceLock;

/// What a request asks for, in the typed form the correctness gate and
/// the direct (library) path consume.
#[derive(Clone, Debug)]
pub enum Op {
    Query { query: QueryGraph, alpha: f64, limit: usize },
    Update { ops: Vec<GraphOp> },
}

/// One request: its typed form and the JSON object whose `to_string()`
/// is the line the server sees.
#[derive(Clone, Debug)]
pub struct Request {
    pub op: Op,
    pub json: Json,
}

impl Request {
    fn query(query: QueryGraph, alpha: f64, limit: Option<usize>) -> Request {
        let pattern = format_pattern(&query, label_table());
        let json = obj()
            .field("op", "query")
            .field("graph", GRAPH_NAME)
            .field("pattern", pattern)
            .field("alpha", alpha)
            .field_opt("limit", limit)
            .field("threads", 1usize)
            .build();
        // Without a `limit` the server applies its reply cap.
        Request { op: Op::Query { query, alpha, limit: limit.unwrap_or(MAX_RESULT_MATCHES) }, json }
    }

    fn update(ops: Vec<GraphOp>) -> Request {
        let json = obj()
            .field("op", "update_graph")
            .field("graph", GRAPH_NAME)
            .field("ops", encode_ops(&ops))
            .build();
        Request { op: Op::Update { ops }, json }
    }

    pub fn is_query(&self) -> bool {
        matches!(self.op, Op::Query { .. })
    }
}

/// A workload's requests. `timed[c]` is client `c`'s list; the traced
/// run replays a prefix of it.
pub struct RequestPlan {
    pub warmup: Vec<Request>,
    pub timed: Vec<Vec<Request>>,
    /// Queries the rebuild check sends after the last mutation batch
    /// (empty unless the workload mutates).
    pub probes: Vec<Request>,
}

/// The synthetic generator's label table (`l0`..`l4`).
pub fn label_table() -> &'static LabelTable {
    static TABLE: OnceLock<LabelTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        let names: Vec<String> = (0..N_LABELS).map(|i| format!("l{i}")).collect();
        LabelTable::from_names(&names)
    })
}

/// Builds `workload`'s request plan. `refs` is the reference network the
/// served graph is generated from (mutation batches are valid against it
/// by construction).
pub fn plan(workload: Workload, seed: u64, sizing: &Sizing, refs: &RefGraph) -> RequestPlan {
    match workload {
        // Same seed, same function: the two workloads send identical lines.
        Workload::CyclicCold | Workload::ShardedTcp => cold_plan(seed, sizing.queries),
        Workload::HotShapes => {
            let mix = hot_mix(seed, sizing.queries);
            let clients = workload.clients();
            let mut timed: Vec<Vec<Request>> = vec![Vec::new(); clients];
            for (i, r) in mix.into_iter().enumerate() {
                timed[i % clients].push(r);
            }
            RequestPlan { warmup: hot_warmup(), timed, probes: Vec::new() }
        }
        Workload::WideResults => wide_plan(seed, sizing.queries),
        Workload::LiveUpdates => {
            let queries = hot_mix(seed, sizing.queries);
            let n_batches = sizing.queries / QUERIES_PER_UPDATE;
            let mut batches = mutation_batches(refs, n_batches, seed).into_iter();
            let mut timed = Vec::with_capacity(queries.len() + n_batches);
            for (i, q) in queries.into_iter().enumerate() {
                timed.push(q);
                if (i + 1) % QUERIES_PER_UPDATE == 0 {
                    timed.push(Request::update(batches.next().expect("one batch per round")));
                }
            }
            let probes = hot_mix(seed ^ 0x5eed, crate::spec::REBUILD_PROBES);
            RequestPlan { warmup: hot_warmup(), timed: vec![timed], probes }
        }
    }
}

// ---------------------------------------------------------------------
// cyclic_cold / sharded_tcp
// ---------------------------------------------------------------------

/// Cyclic structures of 4–5 nodes and 4–6 edges: cycles, chorded cycles,
/// cycles with a tail.
const COLD_STRUCTURES: [(usize, &[(QNode, QNode)]); 6] = [
    (4, &[(0, 1), (1, 2), (2, 3), (0, 3)]),
    (4, &[(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]),
    (4, &[(0, 1), (1, 2), (0, 2), (2, 3)]),
    (5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
    (5, &[(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)]),
    (5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)]),
];

/// Share of references the generator gives label `i` (Zipf, `1/(i+1)`
/// normalised over five labels).
const LABEL_SHARE: [f64; N_LABELS] = [0.438, 0.219, 0.146, 0.109, 0.088];

/// The threshold a cold shape is queried at, from the geometric mean of
/// its labels' shares: selective shapes are asked at a low threshold,
/// common ones at a high one, and shapes whose answers would run to
/// thousands of matches are left out. This keeps one query between about
/// 10 and 150 ms and most replies under 40 KB at n = 8000 — without it the
/// same six structures span 3 ms to 3 s and the slowest tenth of the
/// shapes would be the whole measurement.
fn cold_alpha(labels: &[Label]) -> Option<f64> {
    let log_sum: f64 = labels.iter().map(|l| LABEL_SHARE[l.idx()].ln()).sum();
    let g = (log_sum / labels.len() as f64).exp();
    match g {
        g if g < 0.115 => Some(0.02),
        g if g < 0.16 => Some(0.1),
        g if g < 0.23 => Some(0.5),
        _ => None,
    }
}

/// The first `n` cold shapes: round-robin over the structures, each
/// walking its label assignments with a stride coprime to their number,
/// keeping one representative per canonical shape. Independent of the
/// seed, so every run measures the same population.
pub fn cold_shapes(n: usize) -> Vec<(QueryGraph, f64)> {
    const STRIDE: usize = 7;
    let mut seen = HashSet::new();
    let mut cursors = [0usize; COLD_STRUCTURES.len()];
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let before = out.len();
        for (si, (k, edges)) in COLD_STRUCTURES.iter().enumerate() {
            let total = N_LABELS.pow(*k as u32);
            while cursors[si] < total && out.len() < n {
                let mut t = (3 + cursors[si] * STRIDE) % total;
                cursors[si] += 1;
                let labels: Vec<Label> = (0..*k)
                    .map(|_| {
                        let l = Label((t % N_LABELS) as u16);
                        t /= N_LABELS;
                        l
                    })
                    .collect();
                let Some(alpha) = cold_alpha(&labels) else { continue };
                let q = QueryGraph::new(labels, edges.to_vec()).expect("structure is connected");
                let canon = q.canonical_form();
                if seen.insert((canon.labels, canon.edges)) {
                    out.push((q, alpha));
                    break;
                }
            }
        }
        assert!(out.len() > before, "ran out of distinct cold shapes at {}", out.len());
    }
    out
}

/// Warm-up queries of the cold workloads: shapes the timed list never
/// uses, so warming connections and code paths fills no cache entry a
/// timed query could hit.
const COLD_WARMUP: usize = 4;

/// The cold shapes in the order [`cold_shapes`] walks them; the seed draws
/// every pattern's variable numbering and nothing else. A seed-shuffled
/// order was tried: what a query costs depends on which queries ran just
/// before it (the same shape took 0.45 to 1.6 times as long from one
/// order to the next, against 0.96 to 1.04 under renumbering alone), so
/// the percentiles of the same 144 shapes moved by 5 % from seed to seed.
fn cold_plan(seed: u64, n: usize) -> RequestPlan {
    let mut shapes = cold_shapes(n + COLD_WARMUP);
    let warm = shapes.split_off(n);
    let mut rng = Rng::new(seed, 1);
    let mut renumber = |(q, alpha): (QueryGraph, f64)| {
        Request::query(permuted_query(&q, rng.next_u64()), alpha, None)
    };
    let timed: Vec<Request> = shapes.into_iter().map(&mut renumber).collect();
    let warmup = warm.into_iter().map(&mut renumber).collect();
    RequestPlan { warmup, timed: vec![timed], probes: Vec::new() }
}

// ---------------------------------------------------------------------
// hot_shapes / live_updates queries
// ---------------------------------------------------------------------

fn labelled(labels: &[u16], edges: &[(QNode, QNode)]) -> QueryGraph {
    QueryGraph::new(labels.iter().map(|&l| Label(l)).collect(), edges.to_vec())
        .expect("hand-written shape is valid")
}

/// Eight small selective shapes (2–3 decomposition paths, a handful of
/// matches, 1–5 ms each at n = 8000). By cost they are three cheap ones,
/// four in the middle and one dear one, so that in the hot mix — and in
/// `live_updates`, where every third query is a cache miss — the median
/// and the 90th percentile each lie inside one group's latencies, not in
/// the empty stretch between two groups, where a handful of delayed
/// requests would move them by half a group's distance.
pub fn hot_shapes() -> Vec<QueryGraph> {
    const TRIANGLE: &[(QNode, QNode)] = &[(0, 1), (1, 2), (0, 2)];
    const PATH4: &[(QNode, QNode)] = &[(0, 1), (1, 2), (2, 3)];
    const SQUARE: &[(QNode, QNode)] = &[(0, 1), (1, 2), (2, 3), (0, 3)];
    vec![
        labelled(&[2, 3, 4], TRIANGLE),
        labelled(&[1, 3, 4], TRIANGLE),
        labelled(&[2, 2, 4], TRIANGLE),
        labelled(&[1, 2, 4], TRIANGLE),
        labelled(&[1, 2, 3], TRIANGLE),
        labelled(&[4, 3, 4, 3], PATH4),
        labelled(&[2, 3, 4, 3], SQUARE),
        labelled(&[2, 4, 3, 4], SQUARE),
    ]
}

/// Thresholds of the hot mix: three values inside one power-of-two floor
/// bucket, so each shape owns exactly one `ExecCache` entry.
const HOT_ALPHAS: [f64; 3] = [0.5, 0.55, 0.6];

/// Replies of the hot mix are capped small: the workload measures the
/// front end and the cache path, not reply transport.
const HOT_LIMIT: usize = 64;

/// `n` picks from `kinds` in rounds: every round is each kind once, in a
/// seed-shuffled order (the last round may be cut short). So every kind
/// is asked equally often in every stretch of the list, whatever the
/// seed, and a percentile keeps its place among the kinds' latencies.
fn in_rounds<T: Clone>(kinds: &[T], n: usize, rng: &mut Rng) -> Vec<T> {
    let mut picks = Vec::with_capacity(n + kinds.len());
    while picks.len() < n {
        let mut round = kinds.to_vec();
        rng.shuffle(&mut round);
        picks.extend(round);
    }
    picks.truncate(n);
    picks
}

/// `n` hot queries in rounds of [`QUERIES_PER_UPDATE`]: each (shape,
/// threshold) pair once per round, each query under a seed-drawn variable
/// numbering. With the order drawn over the whole list instead, the
/// number of distinct shapes between two `live_updates` batches — the
/// cache misses — differed from seed to seed, and `query_p90_ms`, which
/// lies among the misses, with it.
fn hot_mix(seed: u64, n: usize) -> Vec<Request> {
    let shapes = hot_shapes();
    let pairs: Vec<(usize, f64)> =
        (0..shapes.len()).flat_map(|s| HOT_ALPHAS.map(|alpha| (s, alpha))).collect();
    assert_eq!(pairs.len(), QUERIES_PER_UPDATE, "one round is every (shape, threshold) pair");
    let mut rng = Rng::new(seed, 2);
    in_rounds(&pairs, n, &mut rng)
        .into_iter()
        .map(|(s, alpha)| {
            Request::query(permuted_query(&shapes[s], rng.next_u64()), alpha, Some(HOT_LIMIT))
        })
        .collect()
}

/// One query per shape at the bucket's floor: fills every plan-cache and
/// exec-cache entry the timed window will use.
fn hot_warmup() -> Vec<Request> {
    hot_shapes().into_iter().map(|q| Request::query(q, HOT_ALPHAS[0], Some(HOT_LIMIT))).collect()
}

// ---------------------------------------------------------------------
// wide_results
// ---------------------------------------------------------------------

/// Matches every `wide_results` reply carries (each shape has several
/// thousand answers at [`WIDE_ALPHA`], so the limit always bites). About
/// 60 KB per reply line: large enough that generation, encoding, the
/// socket and the client's parse outweigh the join, small enough that
/// 200 of them fit the window with today's quadratic string parse.
pub const WIDE_LIMIT: usize = 1000;
const WIDE_ALPHA: f64 = 0.1;

/// Seven acyclic 3–4 node shapes over the four rarer labels: broad answers
/// from modest candidate lists, so the server's join stays a minor part.
/// Seven, asked equally often, put the median inside the fourth shape's
/// latencies and the 90th percentile inside the slowest shape's; with the
/// ten first planned the 90th percentile was the gap between the ninth
/// and the tenth.
pub fn wide_shapes() -> Vec<QueryGraph> {
    const PATH3: &[(QNode, QNode)] = &[(0, 1), (1, 2)];
    const PATH4: &[(QNode, QNode)] = &[(0, 1), (1, 2), (2, 3)];
    const STAR: &[(QNode, QNode)] = &[(0, 1), (0, 2), (0, 3)];
    vec![
        labelled(&[1, 2, 3], PATH3),
        labelled(&[2, 1, 3], PATH3),
        labelled(&[1, 3, 4], PATH3),
        labelled(&[2, 3, 4], PATH3),
        labelled(&[2, 3, 4, 3], PATH4),
        labelled(&[1, 2, 3, 4], PATH4),
        labelled(&[3, 1, 2, 4], STAR),
    ]
}

fn wide_plan(seed: u64, n: usize) -> RequestPlan {
    let shapes = wide_shapes();
    let mut rng = Rng::new(seed, 3);
    let timed = in_rounds(&shapes, n, &mut rng)
        .into_iter()
        .map(|q| Request::query(permuted_query(&q, rng.next_u64()), WIDE_ALPHA, Some(WIDE_LIMIT)))
        .collect();
    let warmup =
        shapes.into_iter().map(|q| Request::query(q, WIDE_ALPHA, Some(WIDE_LIMIT))).collect();
    RequestPlan { warmup, timed: vec![timed], probes: Vec::new() }
}

// ---------------------------------------------------------------------
// live_updates mutation batches
// ---------------------------------------------------------------------

/// Only references with at most this many relations are mutated: the
/// cost of a batch follows the size of the dirty ball around what it
/// touches, and one preferential-attachment hub in a batch would make
/// that batch (and the run's throughput) ten times the median.
const MAX_MUTATED_DEGREE: u32 = 8;

/// `n` mutation batches, alternating 1 and 8 ops of `upsert_edge`,
/// `delete_edge` and `upsert_ref`, each valid against the network left
/// by the batches before it.
pub fn mutation_batches(refs: &RefGraph, n: usize, seed: u64) -> Vec<Vec<GraphOp>> {
    let mut rng = Rng::new(seed, 4);
    let mut state = refs.clone();
    (0..n)
        .map(|b| {
            let batch = one_batch(&state, if b % 2 == 0 { 1 } else { 8 }, &mut rng);
            state.apply_all(&batch).expect("generated batch is valid by construction");
            batch
        })
        .collect()
}

fn one_batch(state: &RefGraph, size: usize, rng: &mut Rng) -> Vec<GraphOp> {
    let mut degree = vec![0u32; state.n_refs()];
    for e in state.edges() {
        degree[e.a.idx()] += 1;
        degree[e.b.idx()] += 1;
    }
    let quiet = |r: RefId| state.ref_is_alive(r) && degree[r.idx()] <= MAX_MUTATED_DEGREE;
    // A reference takes part in at most one op of a batch, so no op can
    // invalidate a later one (deleting an edge twice, say).
    let mut used: HashSet<u32> = HashSet::new();
    let pick_ref = |rng: &mut Rng, used: &mut HashSet<u32>| loop {
        let r = RefId(rng.below(state.n_refs()) as u32);
        if quiet(r) && used.insert(r.0) {
            return r;
        }
    };
    let mut ops = Vec::with_capacity(size);
    while ops.len() < size {
        match rng.below(3) {
            0 => {
                let (a, b) = (pick_ref(rng, &mut used), pick_ref(rng, &mut used));
                ops.push(GraphOp::UpsertEdge { a, b, p: 0.3 + 0.6 * rng.unit() });
            }
            1 => {
                let e = &state.edges()[rng.below(state.n_edges())];
                if quiet(e.a) && quiet(e.b) && !used.contains(&e.a.0) && !used.contains(&e.b.0) {
                    used.insert(e.a.0);
                    used.insert(e.b.0);
                    ops.push(GraphOp::DeleteEdge { a: e.a, b: e.b });
                }
            }
            _ => {
                let label = rng.below(N_LABELS) as u16;
                let r = (rng.below(2) == 0).then(|| pick_ref(rng, &mut used));
                ops.push(GraphOp::UpsertRef { r, labels: vec![(label, 1.0)] });
            }
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{sizing, DEFAULT_SECONDS};

    fn small_refs(seed: u64) -> RefGraph {
        datagen::synthetic_refgraph(&datagen::SyntheticConfig {
            seed,
            ..datagen::SyntheticConfig::paper_with_uncertainty(400, 0.2)
        })
    }

    fn lines(plan: &RequestPlan) -> Vec<String> {
        plan.warmup
            .iter()
            .chain(plan.timed.iter().flatten())
            .chain(&plan.probes)
            .map(|r| r.json.to_string())
            .collect()
    }

    #[test]
    fn same_seed_same_lines_other_seed_other_lines() {
        let refs = small_refs(7);
        for w in Workload::ALL {
            let s = sizing(w, DEFAULT_SECONDS, true);
            let a = lines(&plan(w, 7, &s, &refs));
            assert_eq!(a, lines(&plan(w, 7, &s, &refs)), "{w:?}");
            assert_ne!(a, lines(&plan(w, 8, &s, &refs)), "{w:?}");
        }
    }

    #[test]
    fn sharded_sends_cyclic_colds_lines() {
        let refs = small_refs(3);
        let s = sizing(Workload::CyclicCold, DEFAULT_SECONDS, false);
        assert_eq!(
            lines(&plan(Workload::CyclicCold, 3, &s, &refs)),
            lines(&plan(Workload::ShardedTcp, 3, &s, &refs))
        );
    }

    #[test]
    fn cold_shapes_never_repeat_a_canonical_shape() {
        let shapes = cold_shapes(600);
        let mut seen = HashSet::new();
        for (q, alpha) in &shapes {
            assert!((4..=5).contains(&q.n_nodes()) && (4..=6).contains(&q.n_edges()));
            assert!([0.5, 0.1, 0.02].contains(alpha));
            let c = q.canonical_form();
            assert!(seen.insert((c.labels, c.edges)), "repeated shape");
        }
        // Renumbering keeps the shape, so the request list has none either.
        let p = cold_plan(11, 300);
        let mut seen = HashSet::new();
        for r in p.warmup.iter().chain(&p.timed[0]) {
            let Op::Query { query, .. } = &r.op else { panic!("cold plans only query") };
            let c = query.canonical_form();
            assert!(seen.insert((c.labels, c.edges)), "repeated shape in plan");
        }
    }

    #[test]
    fn hot_mix_is_balanced_and_parses_back() {
        let table = label_table();
        let mix = hot_mix(5, 48);
        let mut per_shape = std::collections::HashMap::new();
        for r in &mix {
            let Op::Query { query, alpha, limit } = &r.op else { panic!() };
            *per_shape.entry((query.shape_hash(), alpha.to_bits())).or_insert(0) += 1;
            assert_eq!(*limit, HOT_LIMIT);
            let text = r.json.get("pattern").and_then(Json::as_str).unwrap();
            let back = pegmatch::pattern::parse_pattern(text, table).unwrap();
            assert_eq!(back.labels(), query.labels());
            assert_eq!(back.edges(), query.edges());
        }
        assert_eq!(per_shape.len(), 24);
        assert!(per_shape.values().all(|&c| c == 2));
        // And every round of 24 is each (shape, threshold) pair once.
        for round in mix.chunks(QUERIES_PER_UPDATE) {
            let pairs: HashSet<(u64, u64)> = round
                .iter()
                .map(|r| match &r.op {
                    Op::Query { query, alpha, .. } => (query.shape_hash(), alpha.to_bits()),
                    Op::Update { .. } => unreachable!("the hot mix only queries"),
                })
                .collect();
            assert_eq!(pairs.len(), QUERIES_PER_UPDATE);
        }
    }

    #[test]
    fn mutation_batches_are_valid_by_construction() {
        for seed in 0..5 {
            let refs = small_refs(seed);
            let batches = mutation_batches(&refs, 12, seed);
            assert_eq!(batches.len(), 12);
            let mut state = refs.clone();
            for (i, batch) in batches.iter().enumerate() {
                assert_eq!(batch.len(), if i % 2 == 0 { 1 } else { 8 });
                state.apply_all(batch).unwrap_or_else(|e| panic!("seed {seed} batch {i}: {e}"));
                // And the wire form decodes to the same ops.
                let req = Request::update(batch.clone());
                assert_eq!(&pegshard::wire::decode_ops(&req.json).unwrap(), batch);
            }
        }
    }

    #[test]
    fn live_plan_interleaves_one_batch_per_round() {
        let refs = small_refs(1);
        let s = sizing(Workload::LiveUpdates, DEFAULT_SECONDS, true);
        let p = plan(Workload::LiveUpdates, 1, &s, &refs);
        let timed = &p.timed[0];
        assert_eq!(timed.iter().filter(|r| r.is_query()).count(), s.queries);
        for (i, r) in timed.iter().enumerate() {
            assert_eq!(!r.is_query(), (i + 1) % (QUERIES_PER_UPDATE + 1) == 0, "position {i}");
        }
        assert_eq!(p.probes.len(), crate::spec::REBUILD_PROBES);
    }
}
