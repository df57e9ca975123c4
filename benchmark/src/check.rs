//! The correctness gate: the harness's own copy of the served graph, and
//! the f64-bit-exact comparison of every served reply against it.

use crate::spec::{BETA, GRAPH_SEED, MAX_LEN, UNCERTAINTY};
use graphstore::{GraphOp, RefGraph};
use pathindex::PathIndexConfig;
use pegmatch::matcher::Match;
use pegmatch::model::{Peg, PegBuilder};
use pegmatch::offline::{OfflineIndex, OfflineOptions};
use pegmatch::online::{QueryOptions, QueryPipeline};
use pegmatch::query::QueryGraph;
use pegserve::GraphSpec;
use pegwire::Json;
use std::time::{Duration, Instant};

/// The generator spec of the served graph: the `load_graph` fields and
/// the harness's own build both come from here. The graph is part of the
/// benchmark's definition, not of a run's seed: one preferential-
/// attachment hub more or less under a rare label moves a cyclic query's
/// cost several-fold, so across generator seeds the 95th percentile of
/// the same request list ranged 92–698 ms — wider than any bound. `--seed`
/// draws the requests; the data they run on stays put.
pub fn graph_spec(size: usize) -> GraphSpec {
    GraphSpec { kind: "synthetic".to_string(), size, seed: GRAPH_SEED, uncertainty: UNCERTAINTY }
}

pub fn offline_options() -> OfflineOptions {
    OfflineOptions { index: PathIndexConfig { max_len: MAX_LEN, beta: BETA, ..Default::default() } }
}

/// One compiled state of the graph: reference network, PEG, offline index.
pub struct GraphState {
    pub refs: RefGraph,
    pub peg: Peg,
    pub offline: OfflineIndex,
}

/// The graph after one mutation batch, and what maintaining it touched.
pub struct Applied {
    pub state: GraphState,
    pub dirty_nodes: usize,
    pub reused_components: usize,
}

/// Wall time of each stage of [`GraphState::build`].
pub struct BuildTimes {
    pub refgraph: Duration,
    pub peg: Duration,
    pub index: Duration,
}

impl GraphState {
    /// Generates and compiles the graph exactly as `load_graph` does.
    pub fn build(spec: &GraphSpec) -> (GraphState, BuildTimes) {
        let t = Instant::now();
        let refs = spec.build_refs();
        let refgraph = t.elapsed();
        let (state, peg, index) = GraphState::compile(refs);
        (state, BuildTimes { refgraph, peg, index })
    }

    /// Compiles `refs` from scratch; returns the PEG and index build times.
    pub fn compile(refs: RefGraph) -> (GraphState, Duration, Duration) {
        let t = Instant::now();
        let peg = PegBuilder::new().build(&refs).expect("generated network compiles");
        let peg_time = t.elapsed();
        let t = Instant::now();
        let offline = OfflineIndex::build(&peg, &offline_options()).expect("offline phase");
        let index_time = t.elapsed();
        (GraphState { refs, peg, offline }, peg_time, index_time)
    }

    /// Applies one mutation batch incrementally, as `update_graph` does
    /// (`pegmatch::live::apply_ops`).
    pub fn apply(&self, ops: &[GraphOp]) -> Applied {
        let up = pegmatch::live::apply_ops(
            &PegBuilder::new(),
            &offline_options(),
            &self.refs,
            &self.peg,
            &self.offline,
            ops,
        )
        .expect("generated batch applies");
        Applied {
            dirty_nodes: up.n_dirty(),
            reused_components: up.reused_components,
            state: GraphState { refs: up.refs, peg: up.peg, offline: up.index },
        }
    }

    /// The reference answer: the direct pipeline, one lane, as the server
    /// runs a `"threads":1` query.
    pub fn answer(&self, query: &QueryGraph, alpha: f64, limit: usize) -> Answer {
        let result = QueryPipeline::new(&self.peg, &self.offline)
            .run_limited(query, alpha, Some(limit), &QueryOptions::with_threads(1))
            .expect("generated query runs");
        Answer::from_matches(&result.matches, result.truncated)
    }
}

/// A query answer in compact bit-exact form: node images plus the raw
/// bits of `prle` and `prn` per match, in reply order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Answer {
    pub truncated: bool,
    pub nodes: Vec<u32>,
    pub prob_bits: Vec<(u64, u64)>,
}

impl Answer {
    pub fn from_matches(matches: &[Match], truncated: bool) -> Answer {
        Answer {
            truncated,
            nodes: matches.iter().flat_map(|m| m.nodes.iter().map(|e| e.0)).collect(),
            prob_bits: matches.iter().map(|m| (m.prle.to_bits(), m.prn.to_bits())).collect(),
        }
    }

    pub fn n_matches(&self) -> usize {
        self.prob_bits.len()
    }
}

/// What the server said, reduced to what the gate and the metrics need.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// An `ok` query reply.
    Answer { answer: Answer, exec_us: u64, plan_from_cache: bool },
    /// An `ok` `update_graph` reply.
    Updated { update_us: u64 },
    /// `overloaded` / `timeout`: the server shed the request.
    Shed(String),
    /// Any other structured error, transport failure, or unreadable reply.
    Failed(String),
}

impl Outcome {
    /// One line for a failure report.
    pub fn describe(&self) -> String {
        match self {
            Outcome::Answer { answer, .. } => {
                format!("an answer of {} matches", answer.n_matches())
            }
            Outcome::Updated { .. } => "an update acknowledgement".to_string(),
            Outcome::Shed(e) | Outcome::Failed(e) => e.clone(),
        }
    }
}

fn field_u64(reply: &Json, key: &str) -> Result<u64, String> {
    reply.get(key).and_then(Json::as_u64).ok_or_else(|| format!("reply lacks \"{key}\""))
}

/// Reduces a parsed reply line to an [`Outcome`].
pub fn outcome_of(reply: &Json) -> Outcome {
    if reply.get("ok").and_then(Json::as_bool) != Some(true) {
        let code = reply.get("error").and_then(Json::as_str).unwrap_or("malformed");
        let message = reply.get("message").and_then(Json::as_str).unwrap_or("");
        let text = format!("{code}: {message}");
        return if matches!(code, "overloaded" | "timeout") {
            Outcome::Shed(text)
        } else {
            Outcome::Failed(text)
        };
    }
    let parsed = if reply.get("matches").is_some() { answer_of(reply) } else { updated_of(reply) };
    parsed.unwrap_or_else(Outcome::Failed)
}

fn answer_of(reply: &Json) -> Result<Outcome, String> {
    let matches =
        reply.get("matches").and_then(Json::as_arr).ok_or("\"matches\" is not an array")?;
    let mut nodes = Vec::new();
    let mut prob_bits = Vec::with_capacity(matches.len());
    for m in matches {
        for n in m.get("nodes").and_then(Json::as_arr).ok_or("match lacks \"nodes\"")? {
            let id = n.as_u64().and_then(|v| u32::try_from(v).ok()).ok_or("bad node id")?;
            nodes.push(id);
        }
        let bits = |key: &str| {
            m.get(key).and_then(Json::as_f64).map(f64::to_bits).ok_or(format!("match lacks {key}"))
        };
        prob_bits.push((bits("prle")?, bits("prn")?));
    }
    let truncated =
        reply.get("truncated").and_then(Json::as_bool).ok_or("reply lacks truncated")?;
    Ok(Outcome::Answer {
        answer: Answer { truncated, nodes, prob_bits },
        exec_us: field_u64(reply, "elapsed_us")?,
        plan_from_cache: reply.get("plan_from_cache").and_then(Json::as_bool).unwrap_or(false),
    })
}

fn updated_of(reply: &Json) -> Result<Outcome, String> {
    Ok(Outcome::Updated { update_us: field_u64(reply, "update_us")? })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphstore::EntityId;

    #[test]
    fn outcome_reads_answers_errors_and_sheds() {
        let line = r#"{"ok":true,"graph":"g","n":1,"truncated":false,"plan_from_cache":true,"elapsed_us":42,"matches":[{"nodes":[7,9],"prle":0.25,"prn":0.5,"prob":0.125}]}"#;
        let Outcome::Answer { answer, exec_us, plan_from_cache } =
            outcome_of(&Json::parse(line).unwrap())
        else {
            panic!("expected an answer")
        };
        let m = Match { nodes: vec![EntityId(7), EntityId(9)], prle: 0.25, prn: 0.5 };
        assert_eq!(answer, Answer::from_matches(&[m], false));
        assert_eq!((exec_us, plan_from_cache), (42, true));

        let shed = r#"{"ok":false,"error":"overloaded","message":"queue full"}"#;
        assert!(matches!(outcome_of(&Json::parse(shed).unwrap()), Outcome::Shed(_)));
        let bad = r#"{"ok":false,"error":"bad_request","message":"nope"}"#;
        assert!(matches!(outcome_of(&Json::parse(bad).unwrap()), Outcome::Failed(_)));
        // A one-bit difference in a probability is a different answer.
        let other =
            Match { nodes: vec![EntityId(7), EntityId(9)], prle: 0.25, prn: 0.5000000000000001 };
        assert_ne!(answer, Answer::from_matches(&[other], false));
    }
}
