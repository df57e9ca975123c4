//! The benchmark's fixed vocabulary: workloads, metric names with units
//! and bounds, sizes, and the interaction table. `BENCHMARK.json` at the
//! repo root repeats the workload and metric tables for the driver; a
//! unit test keeps the two in step.

/// Name every served graph is loaded under.
pub const GRAPH_NAME: &str = "bench";
/// References in the synthetic graph (`--smoke` uses [`SMOKE_GRAPH_SIZE`]).
pub const GRAPH_SIZE: usize = 8000;
pub const SMOKE_GRAPH_SIZE: usize = 400;
/// The generator's seed (`SyntheticConfig::paper`'s default).
pub const GRAPH_SEED: u64 = 42;
/// The generator's degree of uncertainty (the paper's default).
pub const UNCERTAINTY: f64 = 0.2;
/// Offline index knobs — `load_graph`'s defaults, stated so the harness's
/// own copy of the graph is built with exactly the served configuration.
pub const MAX_LEN: usize = 2;
pub const BETA: f64 = 0.3;
/// The synthetic generator's label alphabet (`l0`..`l4`).
pub const N_LABELS: usize = 5;
/// `run_seconds` in `BENCHMARK.json`, and the suite's default.
pub const DEFAULT_SECONDS: f64 = 15.0;
/// Passes of one untraced run: each sets up from nothing (servers, graph
/// load, warm-up) and sends the whole timed list. A request's latency is
/// the median of its timings over the passes; `setup_s` and `query_qps`
/// are medians over the passes.
pub const PASSES: usize = 3;
/// `live_updates` sends one `update_graph` batch after this many queries:
/// one round of the hot mix, every (shape, threshold) pair once, so each
/// batch is followed by exactly one cache miss per shape.
pub const QUERIES_PER_UPDATE: usize = 24;
/// Probe queries compared between the incrementally maintained graph and
/// a from-scratch rebuild after the last mutation batch.
pub const REBUILD_PROBES: usize = 20;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    CyclicCold,
    HotShapes,
    WideResults,
    ShardedTcp,
    LiveUpdates,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::CyclicCold,
        Workload::HotShapes,
        Workload::WideResults,
        Workload::ShardedTcp,
        Workload::LiveUpdates,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CyclicCold => "cyclic_cold",
            Workload::HotShapes => "hot_shapes",
            Workload::WideResults => "wide_results",
            Workload::ShardedTcp => "sharded_tcp",
            Workload::LiveUpdates => "live_updates",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (repeated in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::CyclicCold => "distinct cyclic 4-5 node shapes, so no cache hits: join, reduce and generate dominate",
            Workload::HotShapes => "8 small shapes repeated by 2 clients, so plan and exec caches hit: front end and cache path dominate",
            Workload::WideResults => "about 1000 matches per reply: generation, reply encode, socket and client JSON decode dominate",
            Workload::ShardedTcp => "cyclic_cold's exact requests through 2 TCP shard workers: the difference is the distribution tax",
            Workload::LiveUpdates => "hot_shapes queries with an update_graph batch every 24: invalidation and incremental maintenance cost",
        }
    }

    /// Closed-loop client connections driving the timed window.
    pub fn clients(self) -> usize {
        match self {
            Workload::HotShapes => 2,
            _ => 1,
        }
    }

    /// Shard-worker servers behind the coordinator.
    pub fn workers(self) -> usize {
        match self {
            Workload::ShardedTcp => 2,
            _ => 0,
        }
    }

    /// Queries the served system answers per second of window, measured
    /// at the seed commit on the container's one CPU. It sizes the timed
    /// list so that the [`PASSES`] windows together last about
    /// `--seconds`. A fixed count (not a deadline) ends a window, so work,
    /// match counts and byte counts repeat exactly.
    fn queries_per_second(self) -> f64 {
        match self {
            Workload::CyclicCold | Workload::ShardedTcp => 22.0,
            Workload::HotShapes => 575.0,
            Workload::WideResults => 25.0,
            Workload::LiveUpdates => 85.0,
        }
    }
}

/// Sizes of one run.
#[derive(Clone, Copy, Debug)]
pub struct Sizing {
    pub graph_size: usize,
    /// Queries in the timed list, which every pass sends once.
    pub queries: usize,
    /// Queries the traced run replays (a prefix of the timed list) three
    /// times — untraced, traced, direct — within the budget the untraced
    /// run's windows have.
    pub trace_queries: usize,
}

/// Fewest timed queries of a full-size run: what `query_p90_ms` needs
/// with ten samples beyond it, and a fifth more.
pub const MIN_QUERIES: usize = 120;

pub fn sizing(w: Workload, seconds: f64, smoke: bool) -> Sizing {
    let full = (w.queries_per_second() * seconds / PASSES as f64).round() as usize;
    // The smoke tier keeps two update rounds: a 1-op and an 8-op batch.
    let queries =
        if smoke { (full / 20).max(2 * QUERIES_PER_UPDATE) } else { full.max(MIN_QUERIES) };
    // Whole rounds of the update cadence, so every epoch is the same length.
    let whole_rounds = |n: usize| n.div_ceil(QUERIES_PER_UPDATE) * QUERIES_PER_UPDATE;
    let queries = whole_rounds(queries);
    Sizing {
        graph_size: if smoke { SMOKE_GRAPH_SIZE } else { GRAPH_SIZE },
        queries,
        trace_queries: whole_rounds(queries * 2 / 3).min(queries),
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// End-to-end metrics, measured with harness tracing off. The widest
/// spread (interquartile range ÷ median over ten seeds) a metric showed on
/// any workload at the seed commit is 0.066; the time bounds are not three
/// times that but the most the contract allows, because the container's
/// speed also drifts between sets of runs (`live_updates` medians 12 %
/// apart over three hours). `benchmark/README.md` has the numbers.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "setup_s", unit: "s", higher_is_better: false, bound: 0.25 },
    EndToEnd { name: "query_p50_ms", unit: "ms", higher_is_better: false, bound: 0.25 },
    EndToEnd { name: "query_p90_ms", unit: "ms", higher_is_better: false, bound: 0.25 },
    EndToEnd { name: "query_qps", unit: "1/s", higher_is_better: true, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", higher_is_better: false, bound: 0.15 },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Per-layer metrics have no bound, so only `BENCHMARK.json` carries
    /// the direction (to the driver); the unit test keeps it in step.
    #[cfg_attr(not(test), allow(dead_code))]
    pub higher_is_better: bool,
}

const fn layer(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, higher_is_better: false }
}

const fn layer_up(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, higher_is_better: true }
}

/// Per-layer metrics, from the traced run only. Every workload reports
/// every name; `pegshard.*` and `live.*` come from fixed probes through
/// those layers (see `layers.rs`) so they are measured, not zero, on the
/// workloads whose served path does not cross them.
pub const PER_LAYER: [PerLayer; 50] = [
    layer("datagen.refgraph_ms", "ms"),
    layer("model.peg_build_ms", "ms"),
    layer("offline.index_build_ms", "ms"),
    layer("offline.index_entries", "count"),
    layer("offline.index_bytes", "bytes"),
    layer("online.prepare_us", "us"),
    layer("online.retrieve_us", "us"),
    layer("online.join_us", "us"),
    layer("online.reduce_us", "us"),
    layer("online.generate_us", "us"),
    layer("online.prepare_share", "ratio"),
    layer("online.retrieve_share", "ratio"),
    layer("online.join_share", "ratio"),
    layer("online.reduce_share", "ratio"),
    layer("online.generate_share", "ratio"),
    layer("online.raw_candidates", "count"),
    layer("online.pruned_candidates", "count"),
    layer("online.final_candidates", "count"),
    layer("online.message_rounds", "count"),
    layer("online.frontier_evals", "count"),
    layer_up("online.matches", "count"),
    layer("online.prune_keep_ratio", "ratio"),
    layer("online.reduce_keep_ratio", "ratio"),
    layer_up("plan_cache.hit_share", "ratio"),
    layer_up("exec_cache.hit_share", "ratio"),
    layer("exec_cache.bytes", "bytes"),
    layer("exec_cache.evictions", "count"),
    layer("serve.exec_us", "us"),
    layer("serve.overhead_us", "us"),
    layer("serve.request_bytes", "bytes"),
    layer("serve.reply_bytes", "bytes"),
    layer("serve.shed", "count"),
    layer("client.encode_us", "us"),
    layer("client.decode_us", "us"),
    layer("pegwire.parse_ns_per_byte", "ns/B"),
    layer("pegwire.encode_ns_per_byte", "ns/B"),
    layer("pegshard.build_ms", "ms"),
    layer("pegshard.replication_factor", "ratio"),
    layer("pegshard.retrieve_us", "us"),
    layer("pegshard.reply_encode_us", "us"),
    layer("pegshard.reply_decode_us", "us"),
    layer("pegshard.reply_bytes", "bytes"),
    layer("pegshard.wire_bytes_per_query", "bytes"),
    layer("live.apply_ops_ms", "ms"),
    layer("live.rebuild_ms", "ms"),
    layer_up("live.speedup_vs_rebuild", "ratio"),
    layer("live.dirty_nodes", "count"),
    layer_up("live.reused_components", "count"),
    layer("trace.overhead_share", "ratio"),
    layer("trace.residual_share", "ratio"),
];

/// Per-layer metrics that are counts of work and must repeat exactly
/// between two runs with the same seed (`--check-repeat` asserts it).
pub const EXACT_COUNTS: [&str; 11] = [
    "offline.index_entries",
    "offline.index_bytes",
    "online.raw_candidates",
    "online.pruned_candidates",
    "online.final_candidates",
    "online.message_rounds",
    "online.frontier_evals",
    "online.matches",
    "serve.request_bytes",
    "pegshard.reply_bytes",
    "live.dirty_nodes",
];

/// Which layer metric should move which end-to-end metric, on which
/// workload — written down before measuring, carried in `results.json`
/// so a later PR's trace can be checked against it.
pub struct Interaction {
    pub layer: &'static str,
    pub end_to_end: &'static str,
    pub on: &'static str,
    pub not_on: &'static str,
}

pub const INTERACTIONS: [Interaction; 8] = [
    Interaction {
        layer: "online.join_us, online.generate_us, online.reduce_us",
        end_to_end: "query_p50_ms, query_qps",
        on: "cyclic_cold (and equally sharded_tcp)",
        not_on: "hot_shapes, wide_results p50 by more than the bound",
    },
    Interaction {
        layer: "online.retrieve_us, offline.index_*",
        end_to_end: "query_p50_ms",
        on: "cyclic_cold (retrieve is about a fifth), sharded_tcp",
        not_on: "hot_shapes (cache-served)",
    },
    Interaction {
        layer: "exec_cache.hit_share, plan_cache.hit_share, serve.overhead_us",
        end_to_end: "query_p50_ms, query_p90_ms, query_qps",
        on: "hot_shapes",
        not_on: "cyclic_cold",
    },
    Interaction {
        layer: "client.decode_us, pegwire.parse_ns_per_byte, pegwire.encode_ns_per_byte, serve.reply_bytes",
        end_to_end: "query_p50_ms, query_qps",
        on: "wide_results",
        not_on: "hot_shapes, cyclic_cold (under 15% of wall)",
    },
    Interaction {
        layer: "pegshard.wire_bytes_per_query, pegshard.reply_encode_us, pegshard.reply_decode_us, pegshard.retrieve_us",
        end_to_end: "query_p50_ms",
        on: "sharded_tcp",
        not_on: "cyclic_cold (identical queries, no wire)",
    },
    Interaction {
        layer: "live.apply_ops_ms, live.dirty_nodes",
        end_to_end: "query_qps (the window includes the update batches), update_p50_ms in results.json",
        on: "live_updates",
        not_on: "every other workload",
    },
    Interaction {
        layer: "cache invalidation cost, exec_cache.hit_share after an epoch bump",
        end_to_end: "query_p90_ms",
        on: "live_updates",
        not_on: "hot_shapes",
    },
    Interaction {
        layer: "offline.index_build_ms, model.peg_build_ms, pegshard.build_ms",
        end_to_end: "setup_s",
        on: "all (largest on sharded_tcp)",
        not_on: "query metrics",
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use pegwire::Json;

    fn names(list: &Json) -> Vec<String> {
        list.as_arr()
            .unwrap()
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    }

    /// `BENCHMARK.json` is what the driver reads; the tables above are
    /// what the harness prints. They must name the same things.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let workloads = doc.get("workloads").unwrap();
        assert_eq!(names(workloads), Workload::ALL.map(|w| w.name().to_string()));
        for (w, entry) in Workload::ALL.iter().zip(workloads.as_arr().unwrap()) {
            assert_eq!(entry.get("why").and_then(Json::as_str), Some(w.why()));
        }
        let e2e = doc.get("end_to_end").unwrap();
        assert_eq!(names(e2e), END_TO_END.iter().map(|m| m.name.to_string()).collect::<Vec<_>>());
        for (m, entry) in END_TO_END.iter().zip(e2e.as_arr().unwrap()) {
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(m.bound));
            let better = if m.higher_is_better { "higher" } else { "lower" };
            assert_eq!(entry.get("better").and_then(Json::as_str), Some(better));
        }
        let layers = doc.get("per_layer").unwrap();
        assert_eq!(names(layers), PER_LAYER.iter().map(|m| m.name.to_string()).collect::<Vec<_>>());
        for (m, entry) in PER_LAYER.iter().zip(layers.as_arr().unwrap()) {
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
            let better = if m.higher_is_better { "higher" } else { "lower" };
            assert_eq!(entry.get("better").and_then(Json::as_str), Some(better));
        }
        assert_eq!(doc.get("run_seconds").and_then(Json::as_f64), Some(DEFAULT_SECONDS));
    }

    #[test]
    fn names_fit_the_contract() {
        let ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let mut all: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        all.extend(END_TO_END.iter().map(|m| m.name));
        all.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &all {
            assert!(ok(n), "{n}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "names are used once");
        for w in Workload::ALL {
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        for name in EXACT_COUNTS {
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
    }

    #[test]
    fn full_runs_support_p90_and_whole_update_rounds() {
        for w in Workload::ALL {
            for seconds in [1.0, DEFAULT_SECONDS, 30.0] {
                let s = sizing(w, seconds, false);
                assert!(s.queries >= MIN_QUERIES, "{w:?} {seconds}");
                assert_eq!(s.queries % QUERIES_PER_UPDATE, 0);
                assert!(s.trace_queries <= s.queries && s.trace_queries > 0);
            }
            let (smoke, full) =
                (sizing(w, DEFAULT_SECONDS, true), sizing(w, DEFAULT_SECONDS, false));
            assert!(smoke.queries * 2 < full.queries, "{w:?}: smoke is a small part of full");
        }
    }
}
