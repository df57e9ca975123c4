//! Reply canonicalisation for serving-layer tests that compare replies
//! byte for byte.

use pegserve::Json;

/// Field names — and span tag keys — whose values depend on timing,
/// cache warmth, or request ordering rather than on the request itself:
/// wall clocks at every layer, plan-cache provenance, and trace ids.
/// Everything a reply carries outside this list is a pure function of
/// the request and must compare byte for byte.
const VOLATILE: [&str; 12] = [
    "elapsed_us",
    "plan_from_cache",
    "from_cache",
    "plan_us",
    "trace_id",
    "decompose_us",
    "candidates_us",
    "join_us",
    "reduction_us",
    "generation_us",
    "total_us",
    "retrieve_us",
];

/// Strips every volatile field (recursively) from a protocol reply.
/// Span tags need their own pass: the span codec encodes tags as
/// order-preserving `[key, value]` pairs, not object fields, and
/// volatile keys (plan provenance) hide there too.
pub fn canonical(v: &Json) -> Json {
    match v {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| !VOLATILE.contains(&k.as_str()))
                .map(|(k, val)| {
                    let stripped = if k == "tags" { canonical_tags(val) } else { canonical(val) };
                    (k.clone(), stripped)
                })
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(canonical).collect()),
        other => other.clone(),
    }
}

fn canonical_tags(v: &Json) -> Json {
    let Json::Arr(pairs) = v else { return canonical(v) };
    Json::Arr(
        pairs
            .iter()
            .filter(|p| {
                p.as_arr()
                    .and_then(|pair| pair.first())
                    .and_then(Json::as_str)
                    .is_none_or(|k| !VOLATILE.contains(&k))
            })
            .map(canonical)
            .collect(),
    )
}
