//! The reply tree the streamed writer replaced, kept as its oracle: a
//! `Json` object per match, assembled into one value and rendered with
//! `to_string`. Test-only; `reply.rs`'s property test pins the written
//! line byte-identical to this tree's rendering.

use super::{Answer, QueryReply};
use crate::json::{obj, Json, ObjBuilder};
use crate::proto::{ProtoError, QueryOp};
use crate::statsjson;
use pegmatch::online::PreparedQuery;
use pegshard::{wire as shard_wire, ScatterStats};
use pegtrace::SpanNode;
use std::time::Duration;

/// A query-shaped op's reply, as a value tree.
pub(super) fn tree(q: &QueryReply) -> Json {
    let reply = obj().field("ok", true).field("graph", q.graph.as_str());
    let (op, answers, elapsed) = (q.op, &q.answers, q.elapsed);
    let first = &answers[0];
    let reply = match op {
        QueryOp::Prepare => plan_fields(reply, &first.prepared),
        QueryOp::Query | QueryOp::Topk => result_fields(reply, op, first, elapsed, |r| r),
        QueryOp::Explain => {
            let (trace_id, root) = q.trace.as_ref().expect("an explain reply carries its trace");
            result_fields(reply.field_opt("trace_id", Some(*trace_id)), op, first, elapsed, |r| {
                explain_blocks(r, first, root)
            })
        }
        QueryOp::Batch => {
            let results = answers.iter().map(|answer| {
                let elapsed = answer.prepared.decompose_time() + answer.ran().stats.total_time;
                result_fields(obj(), op, answer, elapsed, |r| r).build()
            });
            reply
                .field("n", answers.len())
                .field("elapsed_us", elapsed.as_micros() as u64)
                .field("results", Json::Arr(results.collect()))
        }
    };
    reply.build()
}

/// The `{"ok":false,...}` line a structured error goes out as.
pub(super) fn error_json(e: &ProtoError) -> Json {
    obj().field("ok", false).field("error", e.code).field("message", e.message.as_str()).build()
}

/// Echoes a request's `"id"` or `"v"` tag onto its reply — success and
/// error replies alike: a client that tags its requests can check every
/// reply against the request it sent, and a version tag that was
/// validated is echoed wherever it was.
pub(super) fn echo(reply: Json, key: &str, tag: Option<u64>) -> Json {
    match (reply, tag) {
        (Json::Obj(mut fields), Some(tag)) => {
            fields.push((key.to_string(), Json::Num(tag as f64)));
            Json::Obj(fields)
        }
        (reply, _) => reply,
    }
}

/// A plan's summary — `prepare`'s reply body and `explain`'s `plan` block.
fn plan_fields(reply: ObjBuilder, prepared: &PreparedQuery) -> ObjBuilder {
    reply
        .field("n_paths", prepared.n_paths())
        .field("from_cache", prepared.from_cache())
        .field_opt("shape_hash", prepared.shape_hash().map(|h| format!("{h:016x}")))
        .field("plan_us", prepared.decompose_time().as_micros() as u64)
}

/// What every answered query reports, in wire order: `n`, `truncated`,
/// `plan_from_cache` (`query` and batch items; a top-k plan is a detail of
/// its refinement loop and `explain` has a `plan` block), `elapsed_us`,
/// the caller's own `blocks`, then `matches` — `{"nodes":[...],"prle":..,
/// "prn":..,"prob":..}` each, f64s bit-exact on the JSON round trip.
fn result_fields(
    reply: ObjBuilder,
    op: QueryOp,
    answer: &Answer,
    elapsed: Duration,
    blocks: impl FnOnce(ObjBuilder) -> ObjBuilder,
) -> ObjBuilder {
    let result = answer.ran();
    let plan_from_cache = matches!(op, QueryOp::Query | QueryOp::Batch);
    let matches = result.matches.iter().map(|m| {
        obj()
            .field("nodes", Json::Arr(m.nodes.iter().map(|e| Json::Num(e.0 as f64)).collect()))
            .field("prle", m.prle)
            .field("prn", m.prn)
            .field("prob", m.prob())
            .build()
    });
    let reply = reply
        .field("n", result.matches.len())
        .field("truncated", result.truncated)
        .field_opt("plan_from_cache", plan_from_cache.then(|| answer.prepared.from_cache()))
        .field("elapsed_us", elapsed.as_micros() as u64);
    blocks(reply).field("matches", Json::Arr(matches.collect()))
}

/// What `explain` says beyond `query`: *how* it ran — plan summary,
/// stage-by-stage pipeline statistics, this request's scatter statistics
/// (when it scattered: a sharded graph, and no execution-cache hit), and
/// the full request span tree, worker-side scatter spans included when
/// the graph is distributed.
fn explain_blocks(reply: ObjBuilder, answer: &Answer, root: &SpanNode) -> ObjBuilder {
    // Request-scoped: read off this request's own `retrieve` span, which
    // the sharded store tagged if (and only if) it scattered.
    let scatter: Option<Json> = root
        .find("retrieve")
        .and_then(ScatterStats::from_span)
        .map(|s| statsjson::scatter_json(&s));
    reply
        .field("plan", plan_fields(obj(), &answer.prepared).build())
        .field("pipeline", statsjson::pipeline_json(&answer.ran().stats))
        .field_opt("scatter", scatter)
        .field("span", shard_wire::encode_span(root))
}
