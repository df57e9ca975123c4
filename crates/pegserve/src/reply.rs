//! Reply lines: what a handler answered, written into the one line its
//! connection sends.
//!
//! A handler hands back a [`Reply`] — a small [`Json`] value, or the
//! query-shaped ops' executed [`Answer`]s — and [`line`] turns it (or the
//! handler's structured error) into the reply text; [`echo`] then tags it
//! with the request's `"v"` and `"id"`. Keeping the turn from result to
//! text here, after the handler returns, is what lets the server time it
//! on its own (`serve.encode_us`).
//!
//! A query reply is written, not built: straight into one `String`
//! pre-sized from its match count, through `pegwire::json`'s own number
//! and string writers — no value per match, no tree. A small value is
//! rendered once through the same two writers (its `Display`), so every
//! number and string of every reply comes from one `f64` formatter and
//! one escaper. The tree the writer replaced is the test oracle in
//! `reply/reference.rs`; a property test pins the two byte-identical.

use crate::json::{self, Json};
use crate::proto::{ProtoError, QueryOp};
use crate::statsjson;
use pegmatch::online::{PreparedQuery, QueryResult};
use pegshard::{wire as shard_wire, ScatterStats};
use pegtrace::SpanNode;
use std::fmt::Write;
use std::time::Duration;

#[cfg(test)]
mod reference;

/// Bytes reserved for a reply line before its matches: the envelope, an
/// error's message, or a `prepare` summary fits without growing.
const LINE_HEAD_BYTES: usize = 256;

/// Bytes reserved per match: a 4-node match with three full-precision
/// probabilities is about 100 (`wide_results` averages 84).
const MATCH_BYTES: usize = 112;

/// What a handler answers with.
pub(crate) enum Reply {
    /// Every op but the query-shaped ones: a small value.
    Value(Json),
    /// `prepare`, `query`, `query_topk`, `query_batch` and `explain`.
    Query(QueryReply),
}

/// One query taken as far as its op goes.
pub(crate) struct Answer {
    pub(crate) prepared: PreparedQuery,
    /// `None` only under `prepare`, which stops after planning.
    pub(crate) result: Option<QueryResult>,
}

impl Answer {
    fn ran(&self) -> &QueryResult {
        self.result.as_ref().expect("every op but prepare runs its plan")
    }
}

/// A query-shaped op's answers, as the executor left them.
pub(crate) struct QueryReply {
    pub(crate) op: QueryOp,
    /// The graph the request resolved.
    pub(crate) graph: String,
    /// One per item, in request order.
    pub(crate) answers: Vec<Answer>,
    /// The `"request"` span's time: planning and execution of every item.
    pub(crate) elapsed: Duration,
    /// `explain` only: the trace id and the closed `"request"` span.
    pub(crate) trace: Option<(u64, SpanNode)>,
}

/// The reply line (without its newline) for a handler's result.
pub(crate) fn line(result: Result<Reply, ProtoError>) -> String {
    match result {
        Ok(Reply::Value(v)) => v.to_string(),
        Ok(Reply::Query(q)) => q.line(),
        Err(e) => error_line(&e),
    }
}

/// The `{"ok":false,...}` line a structured error goes out as.
pub(crate) fn error_line(e: &ProtoError) -> String {
    let mut out = String::with_capacity(LINE_HEAD_BYTES);
    out.push_str("{\"ok\":false,\"error\":");
    text(&mut out, e.code);
    out.push_str(",\"message\":");
    text(&mut out, &e.message);
    out.push('}');
    out
}

/// Echoes a request's `"id"` or `"v"` tag onto its reply line, as the
/// object's last member — success and error replies alike: a client that
/// tags its requests can check every reply against the request it sent,
/// and a version tag that was validated is echoed wherever it was.
pub(crate) fn echo(line: &mut String, key: &str, tag: Option<u64>) {
    let Some(tag) = tag else { return };
    let close = line.pop();
    debug_assert_eq!(close, Some('}'), "every reply is an object");
    if !line.ends_with('{') {
        line.push(',');
    }
    text(line, key);
    line.push(':');
    num(line, tag as f64);
    line.push('}');
}

// The writers below append to a `String`, which cannot fail to take a
// write; `pegwire::json`'s writers are generic over `fmt::Write`, whose
// signature still says it might.

fn num(out: &mut String, n: f64) {
    json::write_num(out, n).expect("a String takes every write");
}

fn text(out: &mut String, s: &str) {
    json::write_escaped(out, s).expect("a String takes every write");
}

fn boolean(out: &mut String, b: bool) {
    out.push_str(if b { "true" } else { "false" });
}

/// A duration as the protocol's whole microseconds.
fn micros(out: &mut String, d: Duration) {
    num(out, d.as_micros() as u64 as f64);
}

/// A small value, rendered through `Json`'s `Display`.
fn value(out: &mut String, v: &Json) {
    write!(out, "{v}").expect("a String takes every write");
}

impl QueryReply {
    /// The reply line, written in the wire order the tree oracle builds.
    fn line(&self) -> String {
        let n_matches: usize =
            self.answers.iter().filter_map(|a| a.result.as_ref()).map(|r| r.matches.len()).sum();
        let mut out = String::with_capacity(LINE_HEAD_BYTES + n_matches * MATCH_BYTES);
        out.push_str("{\"ok\":true,\"graph\":");
        text(&mut out, &self.graph);
        let first = &self.answers[0];
        match self.op {
            QueryOp::Prepare => {
                out.push(',');
                plan_fields(&mut out, &first.prepared);
            }
            QueryOp::Query | QueryOp::Topk => {
                out.push(',');
                result_fields(&mut out, self.op, first, self.elapsed, |_| {});
            }
            QueryOp::Explain => {
                let (trace_id, root) = self.trace.as_ref().expect("an explain reply has its trace");
                out.push_str(",\"trace_id\":");
                num(&mut out, *trace_id as f64);
                out.push(',');
                result_fields(&mut out, self.op, first, self.elapsed, |out| {
                    explain_blocks(out, first, root)
                });
            }
            QueryOp::Batch => {
                out.push_str(",\"n\":");
                num(&mut out, self.answers.len() as f64);
                out.push_str(",\"elapsed_us\":");
                micros(&mut out, self.elapsed);
                out.push_str(",\"results\":[");
                for (i, answer) in self.answers.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let elapsed = answer.prepared.decompose_time() + answer.ran().stats.total_time;
                    out.push('{');
                    result_fields(&mut out, self.op, answer, elapsed, |_| {});
                    out.push('}');
                }
                out.push(']');
            }
        }
        out.push('}');
        out
    }
}

/// A plan's summary — `prepare`'s reply body and `explain`'s `plan` block.
fn plan_fields(out: &mut String, prepared: &PreparedQuery) {
    out.push_str("\"n_paths\":");
    num(out, prepared.n_paths() as f64);
    out.push_str(",\"from_cache\":");
    boolean(out, prepared.from_cache());
    if let Some(hash) = prepared.shape_hash() {
        out.push_str(",\"shape_hash\":");
        text(out, &format!("{hash:016x}"));
    }
    out.push_str(",\"plan_us\":");
    micros(out, prepared.decompose_time());
}

/// What every answered query reports, in wire order: `n`, `truncated`,
/// `plan_from_cache` (`query` and batch items; a top-k plan is a detail of
/// its refinement loop and `explain` has a `plan` block), `elapsed_us`,
/// the caller's own `blocks`, then `matches` — `{"nodes":[...],"prle":..,
/// "prn":..,"prob":..}` each, f64s bit-exact on the JSON round trip.
fn result_fields(
    out: &mut String,
    op: QueryOp,
    answer: &Answer,
    elapsed: Duration,
    blocks: impl FnOnce(&mut String),
) {
    let result = answer.ran();
    out.push_str("\"n\":");
    num(out, result.matches.len() as f64);
    out.push_str(",\"truncated\":");
    boolean(out, result.truncated);
    if matches!(op, QueryOp::Query | QueryOp::Batch) {
        out.push_str(",\"plan_from_cache\":");
        boolean(out, answer.prepared.from_cache());
    }
    out.push_str(",\"elapsed_us\":");
    micros(out, elapsed);
    blocks(out);
    out.push_str(",\"matches\":[");
    for (i, m) in result.matches.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"nodes\":[");
        for (j, e) in m.nodes.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            num(out, f64::from(e.0));
        }
        out.push_str("],\"prle\":");
        num(out, m.prle);
        out.push_str(",\"prn\":");
        num(out, m.prn);
        out.push_str(",\"prob\":");
        num(out, m.prob());
        out.push('}');
    }
    out.push(']');
}

/// What `explain` says beyond `query`: *how* it ran — plan summary,
/// stage-by-stage pipeline statistics, this request's scatter statistics
/// (when it scattered: a sharded graph, and no execution-cache hit), and
/// the full request span tree, worker-side scatter spans included when
/// the graph is distributed. Each block but the plan is a small value.
fn explain_blocks(out: &mut String, answer: &Answer, root: &SpanNode) {
    out.push_str(",\"plan\":{");
    plan_fields(out, &answer.prepared);
    out.push_str("},\"pipeline\":");
    value(out, &statsjson::pipeline_json(&answer.ran().stats));
    // Request-scoped: read off this request's own `retrieve` span, which
    // the sharded store tagged if (and only if) it scattered.
    if let Some(scatter) = root.find("retrieve").and_then(ScatterStats::from_span) {
        out.push_str(",\"scatter\":");
        value(out, &statsjson::scatter_json(&scatter));
    }
    out.push_str(",\"span\":");
    value(out, &shard_wire::encode_span(root));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Query;
    use crate::server::{GraphStore, Server, ServerConfig};
    use graphstore::EntityId;
    use pathindex::PathIndexConfig;
    use pegmatch::matcher::Match;
    use pegmatch::model::PegBuilder;
    use pegmatch::offline::{OfflineIndex, OfflineOptions};
    use pegshard::ShardedGraphStore;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    /// A graph name that takes every escape branch of the string writer.
    const GRAPH: &str = "tiny \"graph\" \\ é\n\u{1}";

    /// One shape per op (in [`QueryOp::ALL`] order), so each op's first
    /// sight plans fresh and its second hits the plan cache.
    const PATTERNS: [&str; 5] = [
        "(x:l0)-(y:l1)",
        "(x:l1)-(y:l2)",
        "(x:l0)-(y:l2)",
        "(x:l0)-(y:l1), (y)-(z:l2)",
        "(x:l1)-(y:l0), (y)-(z:l3)",
    ];

    /// Real replies of every query-shaped op, executed by the server's own
    /// executor on an unsharded graph and on one sharded in process (whose
    /// `explain` carries a `scatter` block), each op twice: plans fresh
    /// and cached, execution-cache first sights and admissions, real
    /// pipeline statistics and span trees. A `query_batch` has 4 items.
    fn templates() -> &'static [QueryReply] {
        static TEMPLATES: OnceLock<Vec<QueryReply>> = OnceLock::new();
        TEMPLATES.get_or_init(|| {
            let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
            let refs = datagen::synthetic_refgraph(
                &datagen::SyntheticConfig::paper_with_uncertainty(200, 0.2),
            );
            let peg = PegBuilder::new().build(&refs).unwrap();
            let opts = OfflineOptions {
                index: PathIndexConfig { max_len: 2, beta: 0.3, ..Default::default() },
            };
            let offline = OfflineIndex::build(&peg, &opts).unwrap();
            let sharded = ShardedGraphStore::build(&refs, peg.clone(), &opts, 2).unwrap();
            server.insert_graph(GRAPH, refs.clone(), GraphStore::Unsharded { peg, offline });
            server.insert_graph("sharded", refs, GraphStore::Sharded(sharded));
            let mut templates = Vec::new();
            for graph in [GRAPH, "sharded"] {
                for _sight in 0..2 {
                    for (op, pattern) in QueryOp::ALL.into_iter().zip(PATTERNS) {
                        let item = || Query {
                            graph: Some(graph.to_string()),
                            pattern: pattern.to_string(),
                            alpha: 0.2,
                            limit: 5,
                            threads: 1,
                            debug_sleep_ms: None,
                        };
                        let n = if op == QueryOp::Batch { 4 } else { 1 };
                        let items: Vec<Query> = (0..n).map(|_| item()).collect();
                        templates.push(server.query_reply(op, &items).unwrap());
                    }
                }
            }
            templates
        })
    }

    /// Probabilities that must cross bit-exactly: both zeros, subnormals,
    /// the largest double below one, a tiny normal, one, and uniform ones.
    fn probability() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(-0.0),
            Just(0.0),
            Just(f64::from_bits(1)),
            Just(f64::MIN_POSITIVE / 3.0),
            Just(1.0 - f64::EPSILON / 2.0),
            Just(1e-300),
            Just(1.0),
            0.0f64..1.0,
        ]
    }

    /// A result's matches: 0–50 of them, 2–6 nodes each.
    fn matches() -> impl Strategy<Value = Vec<Match>> {
        (2usize..=6).prop_flat_map(|k| {
            let one = (prop::collection::vec(any::<u32>(), k), probability(), probability())
                .prop_map(|(nodes, prle, prn)| Match {
                    nodes: nodes.into_iter().map(EntityId).collect(),
                    prle,
                    prn,
                });
            prop::collection::vec(one, 0..=50)
        })
    }

    /// `template` with its results swapped for `items` (a batch keeps as
    /// many items as there are; every other op its first) and `elapsed`.
    fn with_results(
        template: &QueryReply,
        items: &[(Vec<Match>, bool)],
        elapsed: Duration,
    ) -> QueryReply {
        let n = if template.op == QueryOp::Batch { items.len() } else { 1 };
        let answers = template.answers[..n]
            .iter()
            .zip(items)
            .map(|(answer, (matches, truncated))| Answer {
                prepared: answer.prepared.clone(),
                result: answer.result.as_ref().map(|r| QueryResult {
                    matches: matches.clone(),
                    truncated: *truncated,
                    stats: r.stats.clone(),
                }),
            })
            .collect();
        QueryReply {
            op: template.op,
            graph: template.graph.clone(),
            answers,
            elapsed,
            trace: template.trace.clone(),
        }
    }

    /// The line as the server sends it: written, then `"v"` and `"id"`
    /// echoed in that order.
    fn sent(result: Result<Reply, ProtoError>, v: Option<u64>, id: Option<u64>) -> String {
        let mut written = line(result);
        echo(&mut written, "v", v);
        echo(&mut written, "id", id);
        written
    }

    fn tag() -> impl Strategy<Value = Option<u64>> {
        prop::option::of(any::<u64>().prop_map(|n| n % (1 << 53)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(384))]

        #[test]
        fn written_query_replies_equal_the_tree_oracle(
            pick in any::<usize>(),
            items in prop::collection::vec((matches(), any::<bool>()), 1..=4),
            elapsed_ns in 0u64..10_000_000_000,
            v in prop::option::of(Just(1u64)),
            id in tag(),
        ) {
            let template = &templates()[pick % templates().len()];
            let reply = with_results(template, &items, Duration::from_nanos(elapsed_ns));
            let tree = reference::tree(&reply);
            let want = reference::echo(reference::echo(tree, "v", v), "id", id).to_string();
            prop_assert_eq!(sent(Ok(Reply::Query(reply)), v, id), want);
        }

        #[test]
        fn written_errors_equal_the_tree_oracle(
            code in prop::sample::select(vec!["bad_request", "internal", "overloaded"]),
            message in "[a-z \"\\\n\t\u{1}é😀]{0,24}",
            v in prop::option::of(Just(1u64)),
            id in tag(),
        ) {
            let e = ProtoError::new(code, message);
            let want = reference::echo(reference::echo(reference::error_json(&e), "v", v), "id", id);
            prop_assert_eq!(sent(Err(e), v, id), want.to_string());
        }
    }

    #[test]
    fn templates_cover_every_op_both_plan_sights_and_a_scatter() {
        let templates = templates();
        for op in QueryOp::ALL {
            let froms: Vec<bool> = templates
                .iter()
                .filter(|t| t.op == op)
                .flat_map(|t| &t.answers)
                .map(|a| a.prepared.from_cache())
                .collect();
            assert!(froms.contains(&true) && froms.contains(&false), "{op:?}: {froms:?}");
        }
        let scattered = templates
            .iter()
            .filter_map(|t| t.trace.as_ref())
            .any(|(_, root)| root.find("retrieve").and_then(ScatterStats::from_span).is_some());
        assert!(scattered, "a sharded explain reports its scatter");
    }
}
