//! Wire codec for the shard-worker protocol ops.
//!
//! Four ops extend the serving line protocol (one JSON object per line,
//! `{"ok":true,...}` / `{"ok":false,"error":...}` replies):
//!
//! | op               | direction             | payload                                   | reply body |
//! |------------------|-----------------------|-------------------------------------------|------------|
//! | `shard_load`     | coordinator → worker  | generator spec + `shard`, `n_shards`      | [`ShardSummary`] at version 0 |
//! | `shard_retrieve` | coordinator → worker  | query (label ids + edges), paths, `alpha`, `version` | per-path partials |
//! | `shard_update`   | coordinator → worker  | `ops`: mutation batch; target `version`   | [`ShardSummary`] at that version |
//! | `shard_unload`   | coordinator → worker  | `graph`                                   | — |
//!
//! `shard_load` and `shard_update` answer with the same summary
//! ([`encode_summary`] / [`decode_summary`]): the reply's field names
//! appear in this module and nowhere else.
//!
//! Retrieves pin a shard snapshot `version` (workers keep their last two,
//! so sessions begun before a `shard_update` finish against the snapshot
//! they planned on); `shard_update` carries the version the shard must
//! advance to — the worker rejects gaps and treats a resend of its
//! already-latest version as the idempotent retry the transport's
//! redial-and-resend failure handling can produce.
//!
//! A worker answers a connection's requests in order, so the transport
//! pairs each reply with its request by position on the connection
//! ([`pegwire::LineConn`]) and sends no `id`; concurrent scatters use
//! separate connections.
//!
//! The query crosses the wire as **label ids** (`u16`) and query-node
//! indexes, not label names: coordinator and workers build the same graph
//! from the same deterministic generator spec, so their label tables are
//! identical and ids are exact.
//!
//! Candidates come back as **columns**, not as a tree of values. Each path
//! partial of the reply is one flat [`PathMatches`] — three arrays — and
//! crosses the wire as exactly that:
//!
//! ```text
//! {"raw_total":…,"raw_home":…,"pruned_total":…,"stride":k,"n":N,"cols":"<base64>"}
//! ```
//!
//! `cols` is one unpadded base64 string ([`pegwire::base64`]) over
//! `N · (4k + 16)` bytes: the node arena (`N · k` ids, `u32`
//! little-endian, row after row), then the `prle` and the `prn` column
//! (`N` × `f64::to_bits`, little-endian, each). The encoder copies whole
//! columns in and the decoder copies whole columns out
//! ([`PathMatches::from_columns`]); no per-candidate value is built or
//! read on either side. An empty partial is `"n":0` with an
//! empty `cols` and keeps its path's `stride`. The reply is still one JSON
//! object on one line: the framing, the `id` echo and the optional `span`
//! are those of every other op.
//!
//! The decoder trusts nothing the header claims: `stride ≥ 1`, the byte
//! count computed with checked arithmetic, and `cols` of exactly the base64
//! length that count takes — all before allocating, so a header claiming
//! 2^53 candidates costs a comparison, not memory. What it cannot know —
//! that the stride is the plan's, the ids the graph's and the rows in
//! canonical order — the coordinator's gather checks
//! (`store::check_partial`). There is one shape and no fallback:
//! coordinator and workers ship from one build, and a worker answering in
//! any other shape is a `malformed reply`.
//!
//! # f64 bits and the NaN policy
//!
//! Candidate probabilities cross **bit-exactly** because their bits are
//! what is sent: `-0.0`, subnormals and every other finite pattern come
//! back as they left. That also means a NaN or an infinity *has* a
//! representation in the payload, where the JSON writer would have printed
//! `null` — so the policy is enforced where the bits are read: the decoder
//! tests every `prle` and `prn` for finiteness and fails the whole
//! reply on the first that is not. *NaN and infinities cannot cross the
//! wire silently* — impossible by construction, since all stored
//! probabilities live in `[0, 1]`, and a decode error if it happens
//! anyway. `crates/pegshard/tests/wire_proptest.rs` pins both halves:
//! arbitrary finite bit patterns round-trip exactly, non-finite ones are
//! rejected in each of the two probability columns.
//!
//! Everything else that is a probability on this link (`alpha`, mutation
//! weights) is a JSON number and rides [`pegwire::json`]'s
//! shortest-round-trip guarantee; there the writer prints non-finite
//! values as `null` and the decoders here refuse to read one.

use crate::shard::{ShardInfo, ShardSummary};
use crate::transport::{PathPartial, ShardReply, ShardRequest};
use graphstore::{GraphOp, RefId};
use pathindex::PathMatches;
use pegmatch::online::QueryPath;
use pegmatch::query::{QNode, QueryGraph};
use pegtrace::{SpanNode, TagValue};
use pegwire::{base64, obj, Json};

/// Op name: build one shard of a graph on a worker.
pub const OP_SHARD_LOAD: &str = "shard_load";
/// Op name: retrieve + prune candidates for every decomposition path.
pub const OP_SHARD_RETRIEVE: &str = "shard_retrieve";
/// Op name: drop a worker's shard state for a graph.
pub const OP_SHARD_UNLOAD: &str = "shard_unload";
/// Op name: apply a mutation batch to a worker's shard, advancing it to a
/// new version.
pub const OP_SHARD_UPDATE: &str = "shard_update";

/// Mutations one `update_graph` / `shard_update` batch may carry, tops.
/// Bounds the work one request line can demand (each op is O(entities)
/// to apply, and the rebuild it triggers is charged once per batch).
pub const MAX_UPDATE_OPS: usize = 10_000;

/// Home-only histogram entries as a [`ShardSummary`] carries them:
/// `(canonical label sequence, per-grid-cell counts)`.
pub type HistogramEntries = Vec<(Vec<u16>, Vec<u32>)>;

/// A malformed wire payload (field missing, wrong type, out of range,
/// non-finite probability).
#[derive(Debug)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for WireError {}

fn err(msg: impl Into<String>) -> WireError {
    WireError(msg.into())
}

fn need_arr<'a>(v: Option<&'a Json>, what: &str) -> Result<&'a [Json], WireError> {
    v.and_then(Json::as_arr).ok_or_else(|| err(format!("missing or non-array \"{what}\"")))
}

fn need_u64(v: &Json, what: &str) -> Result<u64, WireError> {
    v.as_u64().ok_or_else(|| err(format!("bad {what}: expected a non-negative integer")))
}

/// Decodes a probability: must be a finite JSON number (see the module
/// docs for the NaN policy).
fn need_prob(v: Option<&Json>, what: &str) -> Result<f64, WireError> {
    match v {
        Some(Json::Num(n)) if n.is_finite() => Ok(*n),
        _ => Err(err(format!("bad {what}: expected a finite number"))),
    }
}

/// Encodes the `shard_retrieve` request for one scatter, pinned to the
/// shard snapshot `version` the coordinator's store was built against.
/// When the request's span is recording, the trace id rides along
/// (`"trace_id"`) — its presence is what tells the worker to record its
/// own span subtree and return it on the reply's `"span"` field.
pub fn retrieve_request(graph: &str, version: u64, req: &ShardRequest<'_>) -> Json {
    let labels: Vec<Json> = req.query.labels().iter().map(|l| Json::Num(l.0 as f64)).collect();
    let edges: Vec<Json> = req
        .query
        .edges()
        .iter()
        .map(|&(a, b)| Json::Arr(vec![Json::Num(a as f64), Json::Num(b as f64)]))
        .collect();
    let paths: Vec<Json> = req
        .decomp
        .paths
        .iter()
        .map(|p| Json::Arr(p.nodes.iter().map(|&n| Json::Num(n as f64)).collect()))
        .collect();
    obj()
        .field("op", OP_SHARD_RETRIEVE)
        .field("graph", graph)
        .field("version", version)
        .field_opt("trace_id", req.span.trace_id())
        .field("alpha", req.alpha)
        .field("labels", Json::Arr(labels))
        .field("edges", Json::Arr(edges))
        .field("paths", Json::Arr(paths))
        .build()
}

/// Decodes the optional `"trace_id"` of a retrieve request. Present means
/// "trace this leg": the worker runs its retrieval under a tracer with
/// this id and returns the span subtree on the reply.
pub fn decode_trace_id(req: &Json) -> Result<Option<u64>, WireError> {
    match req.get("trace_id") {
        None | Some(Json::Null) => Ok(None),
        Some(v) => need_u64(v, "\"trace_id\"").map(Some),
    }
}

/// Decodes a `shard_retrieve` request into the query graph, decomposition
/// paths, and threshold the worker executes. Validates ranges (`u16`
/// label ids, path nodes inside the query) so a malformed coordinator
/// cannot panic a worker.
pub fn decode_retrieve_request(req: &Json) -> Result<(QueryGraph, Vec<QueryPath>, f64), WireError> {
    let alpha = need_prob(req.get("alpha"), "\"alpha\"")?;
    if !(0.0..=1.0).contains(&alpha) {
        return Err(err(format!("alpha {alpha} out of range")));
    }
    let labels = need_arr(req.get("labels"), "labels")?
        .iter()
        .map(|v| {
            let id = need_u64(v, "label id")?;
            u16::try_from(id)
                .map(graphstore::Label)
                .map_err(|_| err(format!("label id {id} exceeds u16")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let n_nodes = labels.len();
    let qnode = |v: &Json, what: &str| -> Result<QNode, WireError> {
        let id = need_u64(v, what)?;
        let n = u16::try_from(id).map_err(|_| err(format!("{what} {id} exceeds u16")))?;
        if (n as usize) >= n_nodes {
            return Err(err(format!("{what} {n} out of range for {n_nodes} query nodes")));
        }
        Ok(n)
    };
    let edges = need_arr(req.get("edges"), "edges")?
        .iter()
        .map(|pair| {
            let pair = pair
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| err("bad edge: expected a two-element array"))?;
            Ok((qnode(&pair[0], "edge endpoint")?, qnode(&pair[1], "edge endpoint")?))
        })
        .collect::<Result<Vec<_>, WireError>>()?;
    let query = QueryGraph::new(labels, edges).map_err(|e| err(format!("bad query graph: {e}")))?;
    let paths = need_arr(req.get("paths"), "paths")?
        .iter()
        .map(|p| {
            let nodes = p
                .as_arr()
                .ok_or_else(|| err("bad path: expected an array of query nodes"))?
                .iter()
                .map(|v| qnode(v, "path node"))
                .collect::<Result<Vec<_>, _>>()?;
            if nodes.is_empty() {
                return Err(err("bad path: empty"));
            }
            Ok(QueryPath { nodes })
        })
        .collect::<Result<Vec<_>, WireError>>()?;
    if paths.is_empty() {
        return Err(err("no decomposition paths"));
    }
    Ok((query, paths, alpha))
}

/// Bytes of probabilities a candidate carries: `prle` and `prn`, 8 each.
const PROB_BYTES_PER_CANDIDATE: usize = 16;

/// Bytes the column payload of `n` candidates of `stride` nodes holds —
/// `n · (4 · stride + 16)` — or `None` when that overflows `usize`.
fn column_bytes(stride: usize, n: usize) -> Option<usize> {
    stride.checked_mul(4)?.checked_add(PROB_BYTES_PER_CANDIDATE)?.checked_mul(n)
}

/// Bytes [`encode_columns`] packs for `p`, before base64.
fn packed_len(p: &PathPartial) -> usize {
    let m = &p.matches;
    m.nodes().len() * 4 + (m.prle().len() + m.prn().len()) * 8
}

/// Packs one partial's three columns — the node arena as `u32`s, then
/// `prle` and `prn` as `f64::to_bits`, all little-endian,
/// nothing between them — into one unpadded base64 string.
fn encode_columns(p: &PathPartial) -> String {
    let m = &p.matches;
    let mut bytes = vec![0u8; packed_len(p)];
    let (ids, mut rest) = bytes.split_at_mut(m.nodes().len() * 4);
    for (dst, id) in ids.chunks_exact_mut(4).zip(m.nodes()) {
        dst.copy_from_slice(&id.to_le_bytes());
    }
    for col in [m.prle(), m.prn()] {
        let (here, after) = rest.split_at_mut(col.len() * 8);
        for (dst, x) in here.chunks_exact_mut(8).zip(col) {
            dst.copy_from_slice(&x.to_bits().to_le_bytes());
        }
        rest = after;
    }
    base64::encode(&bytes)
}

/// Characters of column payload [`encode_retrieve_reply`] writes for
/// `reply`: its reply line but for some hundred bytes of counts and shape
/// a path. What a worker's always-on `serve.shard_reply_bytes` records.
pub fn reply_payload_bytes(reply: &ShardReply) -> u64 {
    let chars = |p: &PathPartial| {
        base64::encoded_len(packed_len(p)).expect("columns held in memory encode within usize")
    };
    reply.paths.iter().map(chars).sum::<usize>() as u64
}

/// Encodes the `shard_retrieve` reply: `ok` plus, per path, the three
/// counts, the partial's shape (`stride`, `n`) and its columns as one
/// packed payload (`cols`; the module docs give its layout).
pub fn encode_retrieve_reply(reply: &ShardReply) -> Json {
    let paths: Vec<Json> = reply
        .paths
        .iter()
        .map(|p| {
            obj()
                .field("raw_total", p.raw_total)
                .field("raw_home", p.raw_home)
                .field("pruned_total", p.pruned_total)
                .field("stride", p.matches.stride())
                .field("n", p.matches.len())
                .field("cols", encode_columns(p))
                .build()
        })
        .collect();
    obj().field("ok", true).field("paths", Json::Arr(paths)).build()
}

/// Decodes one partial. The claimed shape is checked against the payload
/// *before* anything is allocated from it: `stride ≥ 1`, `n · (4 · stride +
/// 16)` computed without overflow, and `cols` a string of exactly the
/// base64 length that many bytes take — so a lying `n` costs a comparison.
/// Then the payload must be valid base64 and every `prle` and `prn`
/// finite. Whether the stride is the plan's and the ids the graph's is the
/// coordinator's gather to check: it knows both.
fn decode_partial(p: &Json) -> Result<PathPartial, WireError> {
    let field = |k: &str| -> Result<usize, WireError> {
        p.get(k).and_then(Json::as_usize).ok_or_else(|| err(format!("missing or bad \"{k}\"")))
    };
    let (stride, n) = (field("stride")?, field("n")?);
    if stride == 0 {
        return Err(err("bad \"stride\": a candidate has at least one node"));
    }
    let cols = p
        .get("cols")
        .and_then(Json::as_str)
        .ok_or_else(|| err("missing or non-string \"cols\""))?;
    let n_bytes = column_bytes(stride, n)
        .filter(|&b| base64::encoded_len(b) == Some(cols.len()))
        .ok_or_else(|| {
        err(format!(
            "\"cols\" of {} characters cannot hold {n} candidates of {stride} nodes",
            cols.len()
        ))
    })?;
    let bytes = base64::decode(cols).map_err(|e| err(format!("bad \"cols\": {e}")))?;
    // A base64 length names one byte count, so this cannot fire — but the
    // slicing below leans on it, and the bytes came from outside.
    if bytes.len() != n_bytes {
        return Err(err(format!("\"cols\" decoded to {} bytes, expected {n_bytes}", bytes.len())));
    }
    let (ids, probs) = bytes.split_at(n * stride * 4);
    let nodes = ids
        .chunks_exact(4)
        .map(|b| u32::from_le_bytes(b.try_into().expect("chunks of four")))
        .collect();
    let column = |i: usize, what: &str| -> Result<Vec<f64>, WireError> {
        let col: Vec<f64> = probs[i * n * 8..(i + 1) * n * 8]
            .chunks_exact(8)
            .map(|b| f64::from_bits(u64::from_le_bytes(b.try_into().expect("chunks of eight"))))
            .collect();
        match col.iter().position(|x| !x.is_finite()) {
            Some(row) => Err(err(format!("bad {what}: candidate {row} is not finite"))),
            None => Ok(col),
        }
    };
    let (prle, prn) = (column(0, "prle")?, column(1, "prn")?);
    let matches = PathMatches::from_columns(stride, nodes, prle, prn)
        .ok_or_else(|| err("columns of unequal length"))?;
    Ok(PathPartial {
        raw_total: field("raw_total")?,
        raw_home: field("raw_home")?,
        pruned_total: field("pruned_total")?,
        matches,
    })
}

/// Decodes a `shard_retrieve` reply, requiring exactly `n_paths` partials
/// (a worker answering a different decomposition is a protocol error, not
/// something to silently zip over).
pub fn decode_retrieve_reply(reply: &Json, n_paths: usize) -> Result<ShardReply, WireError> {
    let paths = need_arr(reply.get("paths"), "paths")?;
    if paths.len() != n_paths {
        return Err(err(format!("expected {n_paths} path partials, got {}", paths.len())));
    }
    let paths = paths.iter().map(decode_partial).collect::<Result<Vec<_>, WireError>>()?;
    Ok(ShardReply { paths })
}

/// Integer counts, so the coordinator's element-wise merge equals the
/// unsharded histogram exactly.
fn encode_histogram(entries: &[(Vec<u16>, Vec<u32>)]) -> Json {
    let items: Vec<Json> = entries
        .iter()
        .map(|(seq, counts)| {
            obj()
                .field("seq", Json::Arr(seq.iter().map(|&l| Json::Num(l as f64)).collect()))
                .field("counts", Json::Arr(counts.iter().map(|&c| Json::Num(c as f64)).collect()))
                .build()
        })
        .collect();
    Json::Arr(items)
}

fn decode_histogram(v: Option<&Json>) -> Result<HistogramEntries, WireError> {
    need_arr(v, "hist")?
        .iter()
        .map(|entry| {
            let seq = need_arr(entry.get("seq"), "hist seq")?
                .iter()
                .map(|l| {
                    let id = need_u64(l, "hist label")?;
                    u16::try_from(id).map_err(|_| err(format!("hist label {id} exceeds u16")))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let counts = need_arr(entry.get("counts"), "hist counts")?
                .iter()
                .map(|c| {
                    let n = need_u64(c, "hist count")?;
                    u32::try_from(n).map_err(|_| err(format!("hist count {n} exceeds u32")))
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok((seq, counts))
        })
        .collect()
}

/// Appends a shard's summary to the `shard_load` / `shard_update` reply
/// under construction — the one place those replies' field names are
/// written.
pub fn encode_summary(reply: pegwire::ObjBuilder, s: &ShardSummary) -> pegwire::ObjBuilder {
    reply
        .field("version", s.version)
        .field("nodes", s.full_nodes)
        .field("edges", s.full_edges)
        .field("shard_nodes", s.info.nodes)
        .field("owned_nodes", s.info.owned_nodes)
        .field("shard_edges", s.info.edges)
        .field("index_entries", s.info.index_entries)
        .field("index_bytes", s.info.index_bytes)
        .field("rebuilt", s.rebuilt)
        .field("n_dirty", s.n_dirty)
        .field("hist", encode_histogram(&s.hist))
}

/// Decodes the summary out of a `shard_load` (`version` 0) or
/// `shard_update` reply — the one place those replies' field names are
/// read. Every field must be present and well-typed, and the worker must
/// acknowledge exactly `version`: a shard at any other snapshot is not the
/// one the coordinator's next retrieves will pin.
pub fn decode_summary(reply: &Json, version: u64) -> Result<ShardSummary, WireError> {
    let missing = |k: &str| err(format!("missing or bad \"{k}\""));
    let count = |k: &str| reply.get(k).and_then(Json::as_u64).ok_or_else(|| missing(k));
    let size = |k: &str| reply.get(k).and_then(Json::as_usize).ok_or_else(|| missing(k));
    let acked = count("version")?;
    if acked != version {
        return Err(err(format!("worker acknowledged version {acked}, wanted {version}")));
    }
    Ok(ShardSummary {
        full_nodes: size("nodes")?,
        full_edges: size("edges")?,
        info: ShardInfo {
            nodes: size("shard_nodes")?,
            owned_nodes: size("owned_nodes")?,
            edges: size("shard_edges")?,
            index_entries: size("index_entries")?,
            index_bytes: count("index_bytes")?,
        },
        hist: decode_histogram(reply.get("hist"))?,
        version,
        rebuilt: reply.get("rebuilt").and_then(Json::as_bool).ok_or_else(|| missing("rebuilt"))?,
        n_dirty: size("n_dirty")?,
    })
}

/// Deepest span nesting the decoder accepts (a hostile worker must not
/// recurse the coordinator's stack).
const MAX_SPAN_DEPTH: usize = 64;

/// Most spans one decoded tree may carry.
const MAX_SPAN_NODES: usize = 100_000;

fn tag_value_json(v: &TagValue) -> Json {
    match v {
        TagValue::U64(n) => Json::Num(*n as f64),
        TagValue::F64(x) => Json::Num(*x),
        TagValue::Str(s) => Json::Str(s.clone()),
        TagValue::Bool(b) => Json::Bool(*b),
    }
}

/// Encodes one span subtree as `{"name", "elapsed_us", "tags", "children"}`
/// — tags as ordered `[key, value]` pairs, children recursively. The one
/// codec every trace crosses a boundary with: worker → coordinator on
/// `shard_retrieve` replies, and server → client in `explain` replies, so
/// a stitched distributed trace renders identically at every hop. Empty
/// tag and child lists are omitted to keep reply lines small.
pub fn encode_span(node: &SpanNode) -> Json {
    let mut b = obj().field("name", node.name.as_str()).field("elapsed_us", node.elapsed_us);
    if !node.tags.is_empty() {
        let tags: Vec<Json> = node
            .tags
            .iter()
            .map(|(k, v)| Json::Arr(vec![Json::Str(k.clone()), tag_value_json(v)]))
            .collect();
        b = b.field("tags", Json::Arr(tags));
    }
    if !node.children.is_empty() {
        let children: Vec<Json> = node.children.iter().map(encode_span).collect();
        b = b.field("children", Json::Arr(children));
    }
    b.build()
}

/// Decodes a span subtree, enforcing `MAX_SPAN_DEPTH` and
/// `MAX_SPAN_NODES`. Numeric tags decode as `U64` when the number is a
/// non-negative integer and `F64` otherwise — a deterministic rule, so a
/// decoded tree re-encodes to the identical JSON.
pub fn decode_span(v: &Json) -> Result<SpanNode, WireError> {
    let mut budget = MAX_SPAN_NODES;
    decode_span_at(v, 0, &mut budget)
}

fn decode_span_at(v: &Json, depth: usize, budget: &mut usize) -> Result<SpanNode, WireError> {
    if depth > MAX_SPAN_DEPTH {
        return Err(err(format!("span tree deeper than {MAX_SPAN_DEPTH}")));
    }
    if *budget == 0 {
        return Err(err(format!("span tree exceeds {MAX_SPAN_NODES} nodes")));
    }
    *budget -= 1;
    let name = v
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| err("span missing \"name\""))?
        .to_string();
    let elapsed_us = need_u64(
        v.get("elapsed_us").ok_or_else(|| err("span missing \"elapsed_us\""))?,
        "span elapsed_us",
    )?;
    let tags = match v.get("tags") {
        None | Some(Json::Null) => Vec::new(),
        Some(t) => t
            .as_arr()
            .ok_or_else(|| err("span \"tags\" must be an array"))?
            .iter()
            .map(|pair| {
                let pair = pair
                    .as_arr()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| err("bad span tag: expected [key, value]"))?;
                let key = pair[0]
                    .as_str()
                    .ok_or_else(|| err("span tag keys must be strings"))?
                    .to_string();
                let value = match &pair[1] {
                    Json::Bool(b) => TagValue::Bool(*b),
                    Json::Str(s) => TagValue::Str(s.clone()),
                    Json::Num(n) if n.is_finite() => {
                        if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 {
                            TagValue::U64(*n as u64)
                        } else {
                            TagValue::F64(*n)
                        }
                    }
                    _ => return Err(err("bad span tag value")),
                };
                Ok((key, value))
            })
            .collect::<Result<Vec<_>, WireError>>()?,
    };
    let children = match v.get("children") {
        None | Some(Json::Null) => Vec::new(),
        Some(c) => c
            .as_arr()
            .ok_or_else(|| err("span \"children\" must be an array"))?
            .iter()
            .map(|c| decode_span_at(c, depth + 1, budget))
            .collect::<Result<Vec<_>, WireError>>()?,
    };
    Ok(SpanNode { name, elapsed_us, tags, children })
}

/// Encodes the `shard_unload` request for a graph.
pub fn unload_request(graph: &str) -> Json {
    obj().field("op", OP_SHARD_UNLOAD).field("graph", graph).build()
}

/// Decodes an optional `"version"` field (shard snapshot selector on
/// retrieve requests; target version on `shard_update`). Missing means
/// "latest"; anything present must be a non-negative integer.
pub fn decode_version(req: &Json) -> Result<Option<u64>, WireError> {
    match req.get("version") {
        None | Some(Json::Null) => Ok(None),
        Some(v) => need_u64(v, "\"version\"").map(Some),
    }
}

fn ref_json(r: RefId) -> Json {
    Json::Num(r.0 as f64)
}

fn members_json(members: &[RefId]) -> Json {
    Json::Arr(members.iter().map(|&m| ref_json(m)).collect())
}

/// Encodes one mutation as a tagged object (`{"op":"upsert_edge",...}`).
/// Probabilities and weights ride the same shortest-round-trip f64
/// encoding as candidates, so a mutation applied through the wire is
/// bit-identical to one applied in process.
pub fn encode_op(op: &GraphOp) -> Json {
    match op {
        GraphOp::UpsertRef { r, labels } => {
            let pairs: Vec<Json> = labels
                .iter()
                .map(|&(l, p)| Json::Arr(vec![Json::Num(l as f64), Json::Num(p)]))
                .collect();
            obj()
                .field("op", "upsert_ref")
                .field_opt("ref", r.map(ref_json))
                .field("labels", Json::Arr(pairs))
                .build()
        }
        GraphOp::DeleteRef { r } => {
            obj().field("op", "delete_ref").field("ref", ref_json(*r)).build()
        }
        GraphOp::UpsertEdge { a, b, p } => obj()
            .field("op", "upsert_edge")
            .field("a", ref_json(*a))
            .field("b", ref_json(*b))
            .field("p", *p)
            .build(),
        GraphOp::DeleteEdge { a, b } => obj()
            .field("op", "delete_edge")
            .field("a", ref_json(*a))
            .field("b", ref_json(*b))
            .build(),
        GraphOp::UpsertSet { members, weight } => obj()
            .field("op", "upsert_set")
            .field("members", members_json(members))
            .field("weight", *weight)
            .build(),
        GraphOp::DeleteSet { members } => {
            obj().field("op", "delete_set").field("members", members_json(members)).build()
        }
        GraphOp::SetSingletonWeight { r, weight } => obj()
            .field("op", "set_weight")
            .field("ref", ref_json(*r))
            .field("weight", *weight)
            .build(),
        GraphOp::PairPosterior { a, b, q } => obj()
            .field("op", "pair_posterior")
            .field("a", ref_json(*a))
            .field("b", ref_json(*b))
            .field("q", *q)
            .build(),
    }
}

/// Encodes a mutation batch as a JSON array.
pub fn encode_ops(ops: &[GraphOp]) -> Json {
    Json::Arr(ops.iter().map(encode_op).collect())
}

fn need_ref(v: Option<&Json>, what: &str) -> Result<RefId, WireError> {
    let id = need_u64(v.ok_or_else(|| err(format!("missing \"{what}\"")))?, what)?;
    u32::try_from(id).map(RefId).map_err(|_| err(format!("{what} {id} exceeds u32")))
}

fn need_members(v: Option<&Json>) -> Result<Vec<RefId>, WireError> {
    need_arr(v, "members")?.iter().map(|m| need_ref(Some(m), "member")).collect()
}

/// Decodes one tagged mutation object. Structural validation only (field
/// presence, integer ranges, finite numbers) — semantic validation (live
/// references, probability ranges) happens in [`graphstore`]'s
/// `RefGraph::apply`, which owns the graph state the checks need.
pub fn decode_op(v: &Json) -> Result<GraphOp, WireError> {
    let tag =
        v.get("op").and_then(Json::as_str).ok_or_else(|| err("mutation missing its \"op\" tag"))?;
    match tag {
        "upsert_ref" => {
            let r = match v.get("ref") {
                None | Some(Json::Null) => None,
                some => Some(need_ref(some, "ref")?),
            };
            let labels = need_arr(v.get("labels"), "labels")?
                .iter()
                .map(|pair| {
                    let pair = pair
                        .as_arr()
                        .filter(|p| p.len() == 2)
                        .ok_or_else(|| err("bad label pair: expected [label, prob]"))?;
                    let l = need_u64(&pair[0], "label id")?;
                    let l =
                        u16::try_from(l).map_err(|_| err(format!("label id {l} exceeds u16")))?;
                    Ok((l, need_prob(Some(&pair[1]), "label probability")?))
                })
                .collect::<Result<Vec<_>, WireError>>()?;
            Ok(GraphOp::UpsertRef { r, labels })
        }
        "delete_ref" => Ok(GraphOp::DeleteRef { r: need_ref(v.get("ref"), "ref")? }),
        "upsert_edge" => Ok(GraphOp::UpsertEdge {
            a: need_ref(v.get("a"), "a")?,
            b: need_ref(v.get("b"), "b")?,
            p: need_prob(v.get("p"), "\"p\"")?,
        }),
        "delete_edge" => {
            Ok(GraphOp::DeleteEdge { a: need_ref(v.get("a"), "a")?, b: need_ref(v.get("b"), "b")? })
        }
        "upsert_set" => Ok(GraphOp::UpsertSet {
            members: need_members(v.get("members"))?,
            weight: need_prob(v.get("weight"), "\"weight\"")?,
        }),
        "delete_set" => Ok(GraphOp::DeleteSet { members: need_members(v.get("members"))? }),
        "set_weight" => Ok(GraphOp::SetSingletonWeight {
            r: need_ref(v.get("ref"), "ref")?,
            weight: need_prob(v.get("weight"), "\"weight\"")?,
        }),
        "pair_posterior" => Ok(GraphOp::PairPosterior {
            a: need_ref(v.get("a"), "a")?,
            b: need_ref(v.get("b"), "b")?,
            q: need_prob(v.get("q"), "\"q\"")?,
        }),
        other => Err(err(format!("unknown mutation op \"{other}\""))),
    }
}

/// Decodes a request's `"ops"` array into a mutation batch: non-empty,
/// within [`MAX_UPDATE_OPS`], each op tagged and structurally valid.
/// Errors name the offending index so a failed batch is debuggable.
pub fn decode_ops(req: &Json) -> Result<Vec<GraphOp>, WireError> {
    let items = need_arr(req.get("ops"), "ops")?;
    if items.is_empty() {
        return Err(err("empty mutation batch"));
    }
    if items.len() > MAX_UPDATE_OPS {
        return Err(err(format!(
            "batch of {} mutations exceeds the cap of {MAX_UPDATE_OPS}",
            items.len()
        )));
    }
    items
        .iter()
        .enumerate()
        .map(|(i, v)| decode_op(v).map_err(|e| err(format!("ops[{i}]: {e}"))))
        .collect()
}

/// Encodes the `shard_update` request: the mutation batch plus the
/// version the worker's shard must advance to (coordinator's current
/// version + 1 — the worker rejects gaps, and treats a resend of its
/// already-latest version as the idempotent retry it is).
pub fn update_request(graph: &str, ops: &[GraphOp], version: u64) -> Json {
    obj()
        .field("op", OP_SHARD_UPDATE)
        .field("graph", graph)
        .field("version", version)
        .field("ops", encode_ops(ops))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pegtrace::Span;

    #[test]
    fn span_codec_round_trips_structure_tags_and_children() {
        let tree = SpanNode {
            name: "shard_retrieve".into(),
            elapsed_us: 1234,
            tags: vec![
                ("shard".into(), TagValue::U64(2)),
                ("alpha".into(), TagValue::F64(0.25)),
                ("cache".into(), TagValue::Str("miss".into())),
                ("ok".into(), TagValue::Bool(true)),
            ],
            children: vec![
                SpanNode {
                    name: "path".into(),
                    elapsed_us: 0,
                    tags: vec![("path".into(), TagValue::U64(0))],
                    children: vec![],
                },
                SpanNode { name: "path".into(), elapsed_us: 7, tags: vec![], children: vec![] },
            ],
        };
        let json = Json::parse(&encode_span(&tree).to_string()).unwrap();
        let back = decode_span(&json).unwrap();
        assert_eq!(back, tree);
        // Re-encoding the decoded tree must be byte-identical: the U64/F64
        // decode rule is deterministic, so traces survive any number of
        // hops unchanged.
        assert_eq!(encode_span(&back).to_string(), encode_span(&tree).to_string());
    }

    #[test]
    fn span_decoder_rejects_hostile_depth() {
        // Built in memory: the JSON parser has its own nesting cap, but
        // the decoder must not rely on every caller having one.
        let mut node = obj().field("name", "leaf").field("elapsed_us", 0u64).build();
        for _ in 0..80 {
            node = obj()
                .field("name", "x")
                .field("elapsed_us", 0u64)
                .field("children", Json::Arr(vec![node]))
                .build();
        }
        assert!(decode_span(&node).is_err(), "over-deep span tree must be rejected");
    }

    #[test]
    fn retrieve_request_round_trips() {
        use graphstore::Label;
        let query =
            QueryGraph::new(vec![Label(0), Label(3), Label(1)], vec![(0, 1), (1, 2)]).unwrap();
        let decomp = pegmatch::online::decompose(
            &query,
            2,
            &|_| 1.0,
            pegmatch::online::DecompStrategy::CostBased,
        )
        .unwrap();
        let inert = Span::disabled();
        let req = ShardRequest { query: &query, decomp: &decomp, alpha: 0.25, span: &inert };
        let json = retrieve_request("g", 2, &req);
        let parsed = Json::parse(&json.to_string()).unwrap();
        assert_eq!(decode_version(&parsed).unwrap(), Some(2));
        assert_eq!(decode_trace_id(&parsed).unwrap(), None, "disabled span carries no trace id");
        let (q2, paths, alpha) = decode_retrieve_request(&parsed).unwrap();
        assert_eq!(alpha, 0.25);
        assert_eq!(q2.labels(), query.labels());
        assert_eq!(q2.edges(), query.edges());
        assert_eq!(paths.len(), decomp.paths.len());
        for (a, b) in paths.iter().zip(&decomp.paths) {
            assert_eq!(a.nodes, b.nodes);
        }
    }

    #[test]
    fn malformed_requests_are_rejected_not_panicked() {
        for bad in [
            r#"{"op":"shard_retrieve"}"#,
            r#"{"alpha":2.0,"labels":[0],"edges":[],"paths":[[0]]}"#,
            r#"{"alpha":0.5,"labels":[0],"edges":[[0,5]],"paths":[[0]]}"#,
            r#"{"alpha":0.5,"labels":[99999],"edges":[],"paths":[[0]]}"#,
            r#"{"alpha":0.5,"labels":[0],"edges":[],"paths":[[7]]}"#,
            r#"{"alpha":0.5,"labels":[0],"edges":[],"paths":[]}"#,
            r#"{"alpha":null,"labels":[0],"edges":[],"paths":[[0]]}"#,
        ] {
            let req = Json::parse(bad).unwrap();
            assert!(decode_retrieve_request(&req).is_err(), "{bad} should be rejected");
        }
    }

    /// A one-path reply holding `candidates` as `(nodes, prle, prn)` rows
    /// of a `stride`-node partial.
    fn reply_of(stride: usize, candidates: &[(&[u32], f64, f64)]) -> ShardReply {
        let mut matches = PathMatches::new(stride);
        for &(nodes, prle, prn) in candidates {
            matches.push(nodes.iter().copied(), prle, prn);
        }
        ShardReply {
            paths: vec![PathPartial { raw_total: 5, raw_home: 3, pruned_total: 4, matches }],
        }
    }

    /// Decodes a one-path reply whose partial is the three counts plus
    /// `shape` — the `"stride":…,"n":…,"cols":…` fields as wire text.
    fn decode_shape(shape: &str) -> Result<ShardReply, WireError> {
        let line = format!(
            r#"{{"ok":true,"paths":[{{"raw_total":1,"raw_home":1,"pruned_total":1,{shape}}}]}}"#
        );
        decode_retrieve_reply(&Json::parse(&line).unwrap(), 1)
    }

    /// Two candidates of two nodes, `[1,2]` and `[3,4]`, every probability
    /// 0.5: 48 bytes, 64 characters.
    const TWO_BY_TWO: &str = "AQAAAAIAAAADAAAABAAAAAAAAAAAAOA/AAAAAAAA4D8AAAAAAADgPwAAAAAAAOA/";

    #[test]
    fn reply_round_trips_and_validates_path_count() {
        let reply = reply_of(2, &[(&[7, 2], 0.125, -0.0), (&[9, 4], 0.5, 1.0)]);
        let text = encode_retrieve_reply(&reply).to_string();
        assert_eq!(
            text,
            concat!(
                r#"{"ok":true,"paths":[{"raw_total":5,"raw_home":3,"pruned_total":4,"#,
                r#""stride":2,"n":2,"cols":"BwAAAAIAAAAJAAAABAAAAAAAAAAAAMA/AAAAAAAA4D8"#,
                r#"AAAAAAAAAgAAAAAAAAPA/"}]}"#
            )
        );
        let json = Json::parse(&text).unwrap();
        let back = decode_retrieve_reply(&json, 1).unwrap();
        assert_eq!(back.paths[0].raw_total, 5);
        assert_eq!(back.paths[0].raw_home, 3);
        assert_eq!(back.paths[0].pruned_total, 4);
        assert_eq!(back.paths[0].matches.stride(), 2);
        assert_eq!(back.paths[0].matches.nodes(), &[7, 2, 9, 4]);
        assert_eq!(back.paths[0].matches.prle()[0].to_bits(), 0.125f64.to_bits());
        assert_eq!(back.paths[0].matches.prn()[0].to_bits(), (-0.0f64).to_bits());
        assert!(decode_retrieve_reply(&json, 2).is_err(), "path-count mismatch rejected");
        // No candidates: an empty payload, and the path's stride survives.
        let empty = encode_retrieve_reply(&reply_of(3, &[])).to_string();
        assert!(empty.contains(r#""stride":3,"n":0,"cols":"""#), "{empty}");
        let back = decode_retrieve_reply(&Json::parse(&empty).unwrap(), 1).unwrap();
        assert_eq!((back.paths[0].matches.len(), back.paths[0].matches.stride()), (0, 3));
    }

    #[test]
    fn a_shape_that_lies_about_its_payload_is_rejected() {
        let shape = |stride: &str, n: &str, cols: &str| {
            decode_shape(&format!(r#""stride":{stride},"n":{n},"cols":"{cols}""#))
        };
        let back = shape("2", "2", TWO_BY_TWO).unwrap();
        assert_eq!(back.paths[0].matches.nodes(), &[1, 2, 3, 4]);
        assert_eq!(back.paths[0].matches.prn(), &[0.5, 0.5]);
        // The same 48 bytes are also one candidate of eight nodes: only the
        // gather, which knows the plan, can refuse that reading.
        assert_eq!(shape("8", "1", TWO_BY_TWO).unwrap().paths[0].matches.stride(), 8);
        let huge = (1u64 << 53).to_string();
        for (stride, n, cols, why) in [
            ("2", "3", TWO_BY_TWO, "n too large for the payload"),
            ("2", "1", TWO_BY_TWO, "n too small for the payload"),
            ("3", "2", TWO_BY_TWO, "stride too large for the payload"),
            ("1", "2", TWO_BY_TWO, "stride too small for the payload"),
            ("2", "2", &TWO_BY_TWO[..63], "payload one character short"),
            ("2", "0", TWO_BY_TWO, "an empty partial with a payload"),
            ("2", "2", "", "a full partial without one"),
            ("0", "2", TWO_BY_TWO, "stride 0"),
            ("0", "0", "", "stride 0, even when empty"),
            ("2", &huge, TWO_BY_TWO, "n = 2^53"),
            (&huge, &huge, TWO_BY_TWO, "n * (4 * stride + 16) overflows"),
            ("2", "-2", TWO_BY_TWO, "negative n"),
            ("2.5", "2", TWO_BY_TWO, "fractional stride"),
            ("2", "\"2\"", TWO_BY_TWO, "n not a number"),
        ] {
            assert!(shape(stride, n, cols).is_err(), "{why}");
        }
        // Each of the three fields is required, and `cols` is a string.
        for bad in [
            r#""n":0,"cols":"""#,
            r#""stride":2,"cols":"""#,
            r#""stride":2,"n":0"#,
            r#""stride":2,"n":0,"cols":null"#,
            r#""stride":2,"n":0,"cols":[]"#,
            r#""stride":2,"n":2,"cols":[[[1,2],0.5,0.5],[[3,4],0.5,0.5]]"#,
            // The shape this codec replaced is not accepted either.
            r#""matches":[[[1,2],0.5,0.5,0.25],[[3,4],0.5,0.5,0.25]]"#,
        ] {
            assert!(decode_shape(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn a_payload_that_is_not_the_encoders_base64_is_rejected() {
        let with_cols = |cols: &str| decode_shape(&format!(r#""stride":2,"n":2,"cols":"{cols}""#));
        assert!(with_cols(TWO_BY_TWO).is_ok());
        // Right length, wrong bytes: outside the alphabet, padding and the
        // URL alphabet's `_`.
        for (at, byte) in [(10, "!"), (63, "="), (0, "_"), (40, " ")] {
            let mut cols = TWO_BY_TWO.to_string();
            cols.replace_range(at..at + 1, byte);
            assert!(with_cols(&cols).is_err(), "{byte:?} at {at}");
        }
        // One candidate of one node is 20 bytes = 27 characters, the last
        // group partial; 25 leaves a single dangling sextet, which no byte
        // count encodes to.
        let one = encode_columns(&reply_of(1, &[(&[1], 0.5, 0.5)]).paths[0]);
        assert_eq!(one.len(), 27);
        let cut =
            |len: usize| decode_shape(&format!(r#""stride":1,"n":1,"cols":"{}""#, &one[..len]));
        assert!(cut(27).is_ok());
        assert!(cut(25).is_err());
        // Stray bits in the final partial group.
        let stray = format!("{}9", &one[..26]);
        assert_ne!(stray, one);
        assert!(decode_shape(&format!(r#""stride":1,"n":1,"cols":"{stray}""#)).is_err());
        // Padded out to a multiple of four, as a stock encoder would.
        assert!(decode_shape(&format!(r#""stride":1,"n":1,"cols":"{one}==""#)).is_err());
    }

    #[test]
    fn non_finite_probabilities_are_rejected() {
        // Bits cross verbatim, so the decoder is what refuses a NaN or an
        // infinity — in every column, at any row.
        for (prle, prn) in [(f64::NAN, 0.5), (0.5, f64::INFINITY), (f64::NEG_INFINITY, 0.5)] {
            let reply = reply_of(1, &[(&[1], 0.5, 0.5), (&[2], prle, prn)]);
            let json = Json::parse(&encode_retrieve_reply(&reply).to_string()).unwrap();
            let e = decode_retrieve_reply(&json, 1).err().expect("rejected").to_string();
            assert!(e.contains("candidate 1 is not finite"), "{e}");
        }
    }

    #[test]
    fn mutation_ops_round_trip() {
        let ops = vec![
            GraphOp::UpsertRef { r: None, labels: vec![(0, 0.25), (3, 0.75)] },
            GraphOp::UpsertRef { r: Some(RefId(7)), labels: vec![(1, 1.0)] },
            GraphOp::DeleteRef { r: RefId(2) },
            GraphOp::UpsertEdge { a: RefId(0), b: RefId(1), p: 0.125 },
            GraphOp::DeleteEdge { a: RefId(3), b: RefId(4) },
            GraphOp::UpsertSet { members: vec![RefId(1), RefId(5)], weight: 0.3 },
            GraphOp::DeleteSet { members: vec![RefId(1), RefId(5)] },
            GraphOp::SetSingletonWeight { r: RefId(6), weight: 1.5 },
            GraphOp::PairPosterior { a: RefId(0), b: RefId(9), q: 0.8 },
        ];
        let req = update_request("g", &ops, 3);
        let parsed = Json::parse(&req.to_string()).unwrap();
        assert_eq!(decode_version(&parsed).unwrap(), Some(3));
        let back = decode_ops(&parsed).unwrap();
        assert_eq!(back, ops);
    }

    #[test]
    fn malformed_mutations_are_rejected() {
        for bad in [
            r#"{"ops":[]}"#,
            r#"{"ops":[{"op":"warp"}]}"#,
            r#"{"ops":[{"op":"upsert_edge","a":0,"b":1,"p":null}]}"#,
            r#"{"ops":[{"op":"delete_ref"}]}"#,
            r#"{"ops":[{"op":"upsert_ref","labels":[[99999,1.0]]}]}"#,
            r#"{"ops":"not an array"}"#,
            r#"{}"#,
        ] {
            let req = Json::parse(bad).unwrap();
            assert!(decode_ops(&req).is_err(), "{bad} should be rejected");
        }
        // Errors carry the offending index.
        let req = Json::parse(r#"{"ops":[{"op":"delete_ref","ref":0},{"op":"warp"}]}"#).unwrap();
        let e = decode_ops(&req).unwrap_err().to_string();
        assert!(e.contains("ops[1]"), "{e}");
        // A non-integer version is rejected, a missing one means latest.
        assert!(decode_version(&Json::parse(r#"{"version":1.5}"#).unwrap()).is_err());
        assert_eq!(decode_version(&Json::parse("{}").unwrap()).unwrap(), None);
    }

    #[test]
    fn histogram_round_trips() {
        let entries =
            vec![(vec![0u16, 2, 1], vec![1u32, 0, 7, 19]), (vec![3u16], vec![0u32, 0, 0, 2])];
        let json = Json::parse(&encode_histogram(&entries).to_string()).unwrap();
        assert_eq!(decode_histogram(Some(&json)).unwrap(), entries);
    }
}
