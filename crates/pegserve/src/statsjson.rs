//! The one JSON rendering for every stats struct the serving layer
//! reports.
//!
//! Four structs cross the protocol boundary as statistics —
//! [`PipelineStats`] (per-query stage instrumentation),
//! [`ScatterStats`] (one request's scatter-gather over a sharded store),
//! [`WorkerStats`] (per-worker transport counters), and
//! [`AdmissionStats`] (the admission semaphore) — and each is rendered
//! by exactly one helper here, shared by the `stats` and `explain`
//! handlers and mirrored by `pegcli`'s pretty printers. One renderer per
//! struct is the drift guard: a field added to a struct shows up in
//! every reply that carries it, under one name, or in none — the
//! `stats`-vs-`--pretty` skew this module replaced cannot recur. The
//! schemas are documented in README.md's protocol table.

use crate::admission::{Admission, AdmissionStats};
use crate::json::{obj, Json};
use pegmatch::online::PipelineStats;
use pegshard::{ScatterStats, WorkerStats};

fn counts(v: &[usize]) -> Json {
    Json::Arr(v.iter().map(|&c| Json::Num(c as f64)).collect())
}

/// Stage-by-stage pipeline instrumentation: per-path candidate counts
/// through the three pruning stages, log10 search-space sizes, reduction
/// work, and per-stage wall times in microseconds. `candidates_us` is
/// the retrieval + context-pruning cost — on an execution-cache hit
/// (`exec_cache_hit: true`) it reports the cache lookup, `join_us` is 0
/// and `reduction_us` only the refinement above the cached base: the work
/// actually done. The counts are the cached build's, at `base_alpha`.
pub fn pipeline_json(s: &PipelineStats) -> Json {
    obj()
        .field("n_paths", s.n_paths)
        .field("raw_counts", counts(&s.raw_counts))
        .field("context_counts", counts(&s.context_counts))
        .field("final_counts", counts(&s.final_counts))
        .field("log10_ss_index", s.log10_ss_index)
        .field("log10_ss_context", s.log10_ss_context)
        .field("log10_ss_final", s.log10_ss_final)
        .field("removed_structure", s.removed_structure)
        .field("removed_upperbound", s.removed_upperbound)
        .field("message_rounds", s.message_rounds)
        .field("frontier_evals", s.frontier_evals)
        .field("full_evals_avoided", s.full_evals_avoided)
        .field("round_frontiers", counts(&s.round_frontiers))
        .field("n_matches", s.n_matches)
        .field("base_alpha", s.base_alpha)
        .field("base_reused", s.base_reused)
        .field("exec_cache_hit", s.exec_cache_hit)
        .field("decompose_us", s.decompose_time.as_micros() as u64)
        .field("candidates_us", s.candidates_time.as_micros() as u64)
        .field("join_us", s.join_time.as_micros() as u64)
        .field("reduction_us", s.reduction_time.as_micros() as u64)
        .field("generation_us", s.generation_time.as_micros() as u64)
        .field("total_us", s.total_time.as_micros() as u64)
        .build()
}

/// One request's scatter-gather: per-shard raw and pruned candidate
/// counts (boundary replicas included), the distinct totals after the
/// home filter, and the retrieval's wall time.
pub fn scatter_json(s: &ScatterStats) -> Json {
    obj()
        .field("per_shard_raw", counts(&s.per_shard_raw))
        .field("per_shard_pruned", counts(&s.per_shard_pruned))
        .field("raw_distinct", s.raw_distinct)
        .field("pruned_distinct", s.pruned_distinct)
        .field("duplicates_dropped", s.duplicates_dropped)
        .field("retrieve_us", s.retrieve_time.as_micros() as u64)
        .build()
}

/// Per-worker transport counters for a distributed graph: exchanges,
/// bytes each way, reconnects, full-history p50/p99 exchange latency,
/// and mux bookkeeping.
pub fn workers_json(ws: &[WorkerStats]) -> Json {
    Json::Arr(
        ws.iter()
            .map(|w| {
                obj()
                    .field("shard", w.shard)
                    .field("addr", w.addr.as_str())
                    .field("requests", w.requests)
                    .field("bytes_tx", w.bytes_tx)
                    .field("bytes_rx", w.bytes_rx)
                    .field("reconnects", w.reconnects)
                    .field("p50_us", w.p50_us)
                    .field("p99_us", w.p99_us)
                    .field("mux_tombstones", w.mux_tombstones)
                    .field("mux_inflight_hwm", w.mux_inflight_hwm)
                    .build()
            })
            .collect(),
    )
}

/// The admission semaphore's configuration and counters.
pub fn admission_json(a: &Admission, s: AdmissionStats) -> Json {
    obj()
        .field("max_sessions", a.max_sessions())
        .field("queue_depth", a.queue_depth())
        .field("deadline_ms", a.deadline().as_millis() as u64)
        .field("running", s.running)
        .field("waiting", s.waiting)
        .field("admitted", s.admitted)
        .field("rejected_overloaded", s.rejected_overloaded)
        .field("rejected_timeout", s.rejected_timeout)
        .field("peak_running", s.peak_running)
        .build()
}

/// A [`pegtrace::MetricsRegistry`] dump: sorted counters and histogram
/// snapshots, the `metrics` op's reply body.
pub fn metrics_json(registry: &pegtrace::MetricsRegistry) -> Json {
    let counters = Json::Arr(
        registry
            .counters()
            .iter()
            .map(|(name, v)| obj().field("name", name.as_str()).field("value", *v).build())
            .collect(),
    );
    let histograms = Json::Arr(
        registry
            .histograms()
            .iter()
            .map(|(name, s)| {
                obj()
                    .field("name", name.as_str())
                    .field("count", s.count)
                    .field("sum_us", s.sum_us)
                    .field("mean_us", s.mean_us)
                    .field("p50_us", s.p50_us)
                    .field("p90_us", s.p90_us)
                    .field("p99_us", s.p99_us)
                    .field("max_us", s.max_us)
                    .build()
            })
            .collect(),
    );
    obj().field("counters", counters).field("histograms", histograms).build()
}
