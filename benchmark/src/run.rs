//! One run of one workload: the untraced measurement (end-to-end
//! metrics) or the traced replay (per-layer metrics), each with the
//! correctness gate.

use crate::check::{graph_spec, Answer, BuildTimes, GraphState, Outcome};
use crate::cluster::{cache_counters, set_up, CacheCounters};
use crate::layers::{apply_batch, direct_query, rebuild, shard_probe, OnlineCounts, ONLINE_PHASES};
use crate::requests::{mutation_batches, plan, Op, Request, RequestPlan};
use crate::spec::{sizing, Sizing, Workload, PASSES};
use crate::stats::{highest_supported_percentile, median, percentile};
use crate::trace::Recorder;
use pegmatch::query::QueryGraph;
use pegserve::{Client, GraphSpec};
use pegwire::Json;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

impl RunConfig {
    pub fn sizing(&self) -> Sizing {
        sizing(self.workload, self.seconds, self.smoke)
    }
}

/// Named measurements of one run, in reporting order.
pub type Metrics = Vec<(&'static str, f64)>;

/// The result of one run.
pub struct RunRecord {
    /// The contract's metrics: every end-to-end metric (untraced) or
    /// every per-layer metric (traced).
    pub metrics: Metrics,
    /// Measurements outside the driver's tables (`update_p50_ms`,
    /// `error_share`, worker round trip, sample counts, the percentile
    /// actually reported in a smoke run).
    pub extra: Vec<(&'static str, Json)>,
    pub attempted: usize,
    /// Transport errors, error replies, sheds and wrong answers, each
    /// with the request it happened on.
    pub failures: Vec<String>,
    /// Spans of a traced run.
    pub trace: Option<Recorder>,
}

// ---------------------------------------------------------------------
// Driving requests
// ---------------------------------------------------------------------

/// One served request as the client saw it.
struct Sample {
    latency: Duration,
    outcome: Outcome,
    request_bytes: usize,
    reply_bytes: usize,
}

/// What the traced run additionally times per request.
struct TracedSample {
    sample: Sample,
    /// Send to reply line read, as `request_line` saw it.
    roundtrip_ns: u64,
    /// `to_string()` of the parsed reply: the encoder's cost on this
    /// reply, without a server in the way.
    reencode_ns: u64,
}

fn failed(e: impl std::fmt::Display) -> Outcome {
    Outcome::Failed(e.to_string())
}

/// The closed loop: send, wait, parse, next. Latency runs from encoding
/// the request line to the end of `Json::parse` on the reply line.
fn drive(client: &mut Client, requests: &[Request]) -> (Vec<Sample>, Instant, Instant) {
    let mut samples = Vec::with_capacity(requests.len());
    let start = Instant::now();
    for req in requests {
        let t0 = Instant::now();
        let line = req.json.to_string();
        let reply = client.request_line(&line);
        let parsed = reply.as_ref().map_err(failed).and_then(|r| Json::parse(r).map_err(failed));
        let latency = t0.elapsed();
        samples.push(Sample {
            latency,
            outcome: parsed.as_ref().map_or_else(Clone::clone, crate::check::outcome_of),
            request_bytes: line.len() + 1,
            reply_bytes: reply.map_or(0, |r| r.len() + 1),
        });
    }
    (samples, start, Instant::now())
}

/// [`drive`] with a `client.request` span per request and a child span
/// per step; `first_index` and `stride` give each request its index in
/// the workload's global order.
fn drive_traced(
    client: &mut Client,
    requests: &[Request],
    rec: &mut Recorder,
    first_index: usize,
    stride: usize,
) -> Vec<TracedSample> {
    let mut samples = Vec::with_capacity(requests.len());
    for (i, req) in requests.iter().enumerate() {
        let index = first_index + i * stride;
        let root = rec.open("client.request", None, index);
        let s = rec.open("client.encode", Some(root), index);
        let line = req.json.to_string();
        rec.close(s);
        let wire = rec.open("wire.roundtrip", Some(root), index);
        let reply = client.request_line(&line);
        let roundtrip_ns = rec.close(wire);
        let s = rec.open("client.decode", Some(root), index);
        let parsed = reply.as_ref().map_err(failed).and_then(|r| Json::parse(r).map_err(failed));
        rec.close(s);
        let latency = Duration::from_nanos(rec.close(root));
        let outcome = parsed.as_ref().map_or_else(Clone::clone, crate::check::outcome_of);
        match &outcome {
            Outcome::Answer { exec_us, .. } => rec.tag(wire, "server_us", *exec_us as f64),
            Outcome::Updated { update_us, .. } => rec.tag(wire, "server_us", *update_us as f64),
            Outcome::Shed(_) | Outcome::Failed(_) => {}
        }
        let t = Instant::now();
        if let Ok(parsed) = &parsed {
            std::hint::black_box(parsed.to_string());
        }
        let reencode_ns = t.elapsed().as_nanos() as u64;
        let reply_bytes = reply.map_or(0, |r| r.len() + 1);
        samples.push(TracedSample {
            sample: Sample { latency, outcome, request_bytes: line.len() + 1, reply_bytes },
            roundtrip_ns,
            reencode_ns,
        });
    }
    samples
}

/// Runs `f(client index, client, its list)` for every client at once, one
/// thread each; results in client order.
fn on_every_client<T: Send>(
    clients: &mut [Client],
    lists: &[&[Request]],
    f: impl Fn(usize, &mut Client, &[Request]) -> T + Sync,
) -> Vec<T> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(lists)
            .enumerate()
            .map(|(c, (client, list))| {
                let f = &f;
                scope.spawn(move || f(c, client, list))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    })
}

/// Runs every client's list concurrently; returns the samples per client
/// and the window's wall time (first send to last reply).
fn drive_all(clients: &mut [Client], lists: &[&[Request]]) -> (Vec<Vec<Sample>>, Duration) {
    let results = on_every_client(clients, lists, |_, client, list| drive(client, list));
    let start = results.iter().map(|r| r.1).min().expect("at least one client");
    let end = results.iter().map(|r| r.2).max().expect("at least one client");
    (results.into_iter().map(|r| r.0).collect(), end - start)
}

// ---------------------------------------------------------------------
// The correctness gate
// ---------------------------------------------------------------------

fn wrong_answer(i: usize, request: &Request, served: &Answer, want: &Answer) -> String {
    format!(
        "request {i}: wrong answer ({} matches served, {} expected) for {}",
        served.n_matches(),
        want.n_matches(),
        request.json
    )
}

/// Compares every served outcome, in the order the server saw the
/// requests, with the harness's own graph — mutated in step by the same
/// batches. Returns the graph as the last request left it.
fn gate(
    mut state: GraphState,
    served: &[(&Request, &Outcome)],
    failures: &mut Vec<String>,
) -> GraphState {
    // Repeated lines (hot mixes) are answered once per graph version.
    let mut known: HashMap<String, Answer> = HashMap::new();
    for (i, (request, outcome)) in served.iter().enumerate() {
        match (&request.op, outcome) {
            (Op::Query { query, alpha, limit }, Outcome::Answer { answer, .. }) => {
                let want = known
                    .entry(request.json.to_string())
                    .or_insert_with(|| state.answer(query, *alpha, *limit));
                if answer != want {
                    failures.push(wrong_answer(i, request, answer, want));
                }
            }
            (Op::Update { ops }, Outcome::Updated { .. }) => {
                state = state.apply(ops).state;
                known.clear();
            }
            (_, other) => failures.push(format!("request {i}: got {}", other.describe())),
        }
    }
    state
}

/// After the last mutation batch: the probe queries, answered by the
/// server, by the harness's incrementally maintained graph and by a
/// from-scratch compile of the mutated reference network, must agree.
fn rebuild_gate(
    incremental: &GraphState,
    rebuilt: &GraphState,
    probes: &[Request],
    served: Option<&[Outcome]>,
    failures: &mut Vec<String>,
) {
    for (i, probe) in probes.iter().enumerate() {
        let Op::Query { query, alpha, limit } = &probe.op else { continue };
        let want = rebuilt.answer(query, *alpha, *limit);
        if incremental.answer(query, *alpha, *limit) != want {
            failures.push(format!("probe {i}: incremental graph differs from rebuild"));
        }
        match served.map(|s| &s[i]) {
            Some(Outcome::Answer { answer, .. }) if *answer == want => {}
            Some(other) => {
                failures.push(format!("probe {i}: served {}, rebuild disagrees", other.describe()))
            }
            None => {}
        }
    }
}

// ---------------------------------------------------------------------
// The untraced run
// ---------------------------------------------------------------------

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn exec_hit_share(before: &CacheCounters, after: &CacheCounters) -> f64 {
    let hits = after.exec_hits - before.exec_hits;
    let lookups = hits + (after.exec_misses - before.exec_misses);
    if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    }
}

/// What each workload promises about the execution cache; a run that
/// breaks the promise measured something else.
fn check_cache_promise(workload: Workload, hit_share: f64, failures: &mut Vec<String>) {
    match workload {
        Workload::CyclicCold | Workload::ShardedTcp if hit_share != 0.0 => {
            failures.push(format!("exec_cache.hit_share is {hit_share}, cold workloads promise 0"));
        }
        Workload::HotShapes if hit_share < 0.9 => {
            failures
                .push(format!("exec_cache.hit_share is {hit_share}, hot_shapes promises >= 0.9"));
        }
        _ => {}
    }
}

fn send_probes(client: &mut Client, probes: &[Request]) -> Vec<Outcome> {
    drive(client, probes).0.into_iter().map(|s| s.outcome).collect()
}

/// One pass of the untraced run: what one set-up and one window gave.
struct Pass {
    setup_s: f64,
    /// Per client, in list order.
    samples: Vec<Vec<Sample>>,
    wall: Duration,
    exec_hit_share: f64,
    /// Replies to the rebuild probes (workloads that mutate).
    probes: Option<Vec<Outcome>>,
}

impl Pass {
    /// What the server said, in request order: every client's timed list,
    /// then the probes.
    fn outcomes(&self) -> Vec<&Outcome> {
        let timed = self.samples.iter().flatten().map(|s| &s.outcome);
        timed.chain(self.probes.iter().flatten()).collect()
    }
}

fn one_pass(cfg: &RunConfig, spec: &GraphSpec, plan: &RequestPlan) -> Result<Pass, String> {
    let mut ready = set_up(cfg.workload, spec, plan)?;
    let before = cache_counters(&mut ready.clients[0])?;
    let lists: Vec<&[Request]> = plan.timed.iter().map(Vec::as_slice).collect();
    let (samples, wall) = drive_all(&mut ready.clients, &lists);
    let after = cache_counters(&mut ready.clients[0])?;
    let mutates = plan.timed.iter().flatten().any(|r| !r.is_query());
    let probes = mutates.then(|| send_probes(&mut ready.clients[0], &plan.probes));
    Ok(Pass {
        setup_s: ready.setup.as_secs_f64(),
        samples,
        wall,
        exec_hit_share: exec_hit_share(&before, &after),
        probes,
    })
}

/// A later pass sent pass 0's lines to a server in the state pass 0's
/// started in, so it must have been told the same.
fn same_as_first_pass(
    k: usize,
    first: &[&Outcome],
    again: &[&Outcome],
    failures: &mut Vec<String>,
) {
    for (i, (a, b)) in first.iter().zip(again).enumerate() {
        let same = match (a, b) {
            (Outcome::Answer { answer: a, .. }, Outcome::Answer { answer: b, .. }) => a == b,
            (Outcome::Updated { .. }, Outcome::Updated { .. }) => true,
            _ => false,
        };
        if !same {
            failures.push(format!(
                "pass {k} request {i}: got {}, pass 0 got {}",
                b.describe(),
                a.describe()
            ));
        }
    }
}

/// The untraced run: [`PASSES`] passes, each a set-up from nothing, a
/// warm-up and one timed window of the whole request list; then the gate.
/// A request's latency is the median of its [`PASSES`] timings — the
/// passes send the same lines to servers in the same state — so a
/// preemption or a neighbour's burst that hits one pass moves no
/// percentile; `query_qps` and `setup_s` are medians over the passes.
pub fn measure(cfg: &RunConfig) -> Result<RunRecord, String> {
    let sizing = cfg.sizing();
    let spec = graph_spec(sizing.graph_size);
    let refs = spec.build_refs();
    let plan = plan(cfg.workload, cfg.seed, &sizing, &refs);
    let mut passes = Vec::with_capacity(PASSES);
    let mut peak_rss = f64::NAN;
    for k in 0..PASSES {
        passes.push(one_pass(cfg, &spec, &plan)?);
        if k == 0 {
            // One set-up and one window into the process's life: the peak
            // is one server's and its clients'. Later it would also hold
            // what the allocator kept of the passes before, and in the
            // gate the harness's own copy of the graph.
            peak_rss = peak_rss_mb();
        }
    }

    let mut failures = Vec::new();
    for pass in &passes {
        check_cache_promise(cfg.workload, pass.exec_hit_share, &mut failures);
    }
    // Pass 0 against the harness's own graph, the others against pass 0.
    let requests: Vec<&Request> = plan.timed.iter().flatten().collect();
    let first = passes[0].outcomes();
    let attempted = first.len() * passes.len();
    let (own, _, _) = GraphState::compile(refs);
    let served: Vec<(&Request, &Outcome)> =
        requests.iter().copied().zip(first.iter().copied()).collect();
    let last = gate(own, &served, &mut failures);
    if let Some(probes) = &passes[0].probes {
        let (rebuilt, _, _) = GraphState::compile(last.refs.clone());
        rebuild_gate(&last, &rebuilt, &plan.probes, Some(probes), &mut failures);
    }
    for (k, pass) in passes.iter().enumerate().skip(1) {
        same_as_first_pass(k, &first, &pass.outcomes(), &mut failures);
    }

    // Each request's latency: the median over the passes.
    let per_pass: Vec<Vec<f64>> = passes
        .iter()
        .map(|p| p.samples.iter().flatten().map(|s| ms(s.latency)).collect())
        .collect();
    let latency_ms: Vec<f64> = (0..requests.len())
        .map(|i| median(&per_pass.iter().map(|p| p[i]).collect::<Vec<_>>()).expect("a pass ran"))
        .collect();
    let by_kind = |queries: bool| -> Vec<f64> {
        requests
            .iter()
            .zip(&latency_ms)
            .filter(|(r, _)| r.is_query() == queries)
            .map(|(_, l)| *l)
            .collect()
    };
    let (query_ms, update_ms) = (by_kind(true), by_kind(false));
    let p50 = median(&query_ms).ok_or("no query was timed")?;
    // A full-size run always has the samples p90 needs; the smoke tier
    // reports the highest percentile its few samples support.
    let (tail_label, tail) = highest_supported_percentile(&query_ms).unwrap_or(("p50", p50));
    let over_passes = |f: &dyn Fn(&Pass) -> f64| -> Vec<f64> { passes.iter().map(f).collect() };
    let setups = over_passes(&|p| p.setup_s);
    let windows = over_passes(&|p| p.wall.as_secs_f64());
    let qps = over_passes(&|p| query_ms.len() as f64 / p.wall.as_secs_f64());
    let metrics: Metrics = vec![
        ("setup_s", median(&setups).expect("a pass ran")),
        ("query_p50_ms", p50),
        ("query_p90_ms", tail),
        ("query_qps", median(&qps).expect("a pass ran")),
        ("peak_rss_mb", peak_rss),
    ];
    let list = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::from(x)).collect());
    let extra = vec![
        ("passes", Json::from(passes.len())),
        ("query_samples", Json::from(query_ms.len())),
        ("tail_percentile", Json::from(tail_label)),
        ("query_p95_ms", percentile(&query_ms, 0.95).map_or(Json::Null, Json::from)),
        ("update_samples", Json::from(update_ms.len())),
        ("update_p50_ms", median(&update_ms).map_or(Json::Null, Json::from)),
        ("window_s", Json::from(median(&windows).expect("a pass ran"))),
        ("error_share", Json::from(failures.len() as f64 / attempted as f64)),
        ("exec_cache.hit_share", Json::from(passes[0].exec_hit_share)),
        ("setup_runs_s", list(&setups)),
        ("window_runs_s", list(&windows)),
    ];
    Ok(RunRecord { metrics, extra, attempted, failures, trace: None })
}

// ---------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------

/// The prefix of `list` holding `n_queries` queries (and the update
/// batches between them).
fn prefix(list: &[Request], n_queries: usize) -> &[Request] {
    let mut seen = 0;
    let end = list
        .iter()
        .position(|r| {
            seen += usize::from(r.is_query());
            seen > n_queries
        })
        .unwrap_or(list.len());
    &list[..end]
}

fn median_us(durations_ns: &[f64]) -> f64 {
    median(durations_ns).unwrap_or(0.0) / 1e3
}

/// The traced run: the first `trace_queries` requests replayed untraced
/// (for the overhead figure), replayed with harness spans on a fresh
/// server, and executed phase by phase on the harness's own graph.
pub fn trace(cfg: &RunConfig) -> Result<RunRecord, String> {
    let sizing = cfg.sizing();
    let spec = graph_spec(sizing.graph_size);
    let (own, BuildTimes { refgraph, peg, index }) = GraphState::build(&spec);
    let plan = plan(cfg.workload, cfg.seed, &sizing, &own.refs);
    let clients = plan.timed.len();
    let lists: Vec<&[Request]> =
        plan.timed.iter().map(|l| prefix(l, sizing.trace_queries / clients)).collect();

    // Pass 1: untraced, for `trace.overhead_share`'s base.
    let mut ready = set_up(cfg.workload, &spec, &plan)?;
    let (_, untraced_wall) = drive_all(&mut ready.clients, &lists);
    drop(ready);

    // Pass 2: traced, on a server in the same state pass 1 started from.
    let mut ready = set_up(cfg.workload, &spec, &plan)?;
    let before = cache_counters(&mut ready.clients[0])?;
    let origin = Recorder::new();
    let t0 = Instant::now();
    let traced = on_every_client(&mut ready.clients, &lists, |c, client, list| {
        let mut rec = origin.sibling();
        (drive_traced(client, list, &mut rec, c, clients), rec)
    });
    let traced_wall = t0.elapsed();
    let after = cache_counters(&mut ready.clients[0])?;
    let mutates = lists.iter().any(|l| l.iter().any(|r| !r.is_query()));
    let served_probes = mutates.then(|| send_probes(&mut ready.clients[0], &plan.probes));
    let replication_served = ready.loaded.get("replication_factor").and_then(Json::as_f64);
    drop(ready);

    let mut rec = origin;
    let mut samples: Vec<Vec<TracedSample>> = Vec::with_capacity(clients);
    for (s, r) in traced {
        samples.push(s);
        rec.absorb(r);
    }
    // Requests in the order their indices give (client lists interleave).
    let mut ordered: Vec<(&Request, &TracedSample)> = Vec::new();
    for i in 0..lists.iter().map(|l| l.len()).max().unwrap_or(0) {
        for (list, s) in lists.iter().zip(&samples) {
            if i < list.len() {
                ordered.push((&list[i], &s[i]));
            }
        }
    }

    // The shard layer, on this workload's first queries (they precede
    // any mutation, so the loaded graph is the one to partition).
    let probe_queries: Vec<(usize, &QueryGraph, f64)> = ordered
        .iter()
        .enumerate()
        .filter_map(|(i, (r, _))| match &r.op {
            Op::Query { query, alpha, .. } => Some((i, query, *alpha)),
            Op::Update { .. } => None,
        })
        .take(SHARD_PROBE_QUERIES.min(crate::spec::QUERIES_PER_UPDATE))
        .collect();
    let index_entries = own.offline.paths.n_entries();
    let index_bytes = own.offline.paths.approx_bytes();
    let shards = shard_probe(&mut rec, &own, &probe_queries);

    // Pass 3: the library path, request by request, gating as it goes.
    let mut failures = Vec::new();
    let mut counts = OnlineCounts::default();
    let mut state = own;
    let (mut dirty_nodes, mut reused_components) = (0usize, 0usize);
    for (i, (request, served)) in ordered.iter().enumerate() {
        match &request.op {
            Op::Query { query, alpha, limit } => {
                let want = direct_query(&mut rec, i, &state, query, *alpha, *limit, &mut counts);
                match &served.sample.outcome {
                    Outcome::Answer { answer, .. } if *answer == want => {}
                    Outcome::Answer { answer, .. } => {
                        failures.push(wrong_answer(i, request, answer, &want))
                    }
                    other => failures.push(format!("request {i}: got {}", other.describe())),
                }
            }
            Op::Update { ops } => {
                let up = apply_batch(&mut rec, i, &state, ops);
                dirty_nodes += up.dirty_nodes;
                reused_components += up.reused_components;
                state = up.state;
                if !matches!(served.sample.outcome, Outcome::Updated { .. }) {
                    failures.push(format!("request {i}: got {}", served.sample.outcome.describe()));
                }
            }
        }
    }
    // The live layer. A workload that mutates has exercised it above; the
    // others apply a 1-op and an 8-op batch here, after their last query,
    // so `live.*` is measured on every workload's graph.
    let mut next = ordered.len();
    if !mutates {
        for ops in mutation_batches(&state.refs, 2, cfg.seed) {
            let up = apply_batch(&mut rec, next, &state, &ops);
            dirty_nodes += up.dirty_nodes;
            reused_components += up.reused_components;
            state = up.state;
            next += 1;
        }
    }
    let rebuilt = rebuild(&mut rec, next, &state);
    rebuild_gate(&state, &rebuilt, &plan.probes, served_probes.as_deref(), &mut failures);

    // ---- metrics ----
    let query_samples: Vec<&TracedSample> =
        ordered.iter().filter(|(r, _)| r.is_query()).map(|(_, s)| *s).collect();
    let n_queries = query_samples.len() as f64;
    let mut exec_us = Vec::new();
    let mut overhead_us = Vec::new();
    let mut plan_hits = 0usize;
    for s in &query_samples {
        if let Outcome::Answer { exec_us: e, plan_from_cache, .. } = &s.sample.outcome {
            exec_us.push(*e as f64);
            overhead_us.push(s.roundtrip_ns as f64 / 1e3 - *e as f64);
            plan_hits += usize::from(*plan_from_cache);
        }
    }
    let update_ms: Vec<f64> =
        ordered.iter().filter(|(r, _)| !r.is_query()).map(|(_, s)| ms(s.sample.latency)).collect();
    let sum = |f: &dyn Fn(&TracedSample) -> f64| ordered.iter().map(|(_, s)| f(s)).sum::<f64>();
    let reply_bytes = sum(&|s| s.sample.reply_bytes as f64);
    let decode_ns: f64 = rec.durations("client.decode").iter().sum();
    let phase_ns: Vec<f64> = ONLINE_PHASES.iter().map(|p| rec.durations(p).iter().sum()).collect();
    let phases_total: f64 = phase_ns.iter().sum();
    let apply_ms = median(&rec.durations("live.apply_ops")).unwrap_or(0.0) / 1e6;
    let rebuild_ms = rec.durations("live.rebuild").iter().sum::<f64>() / 1e6;
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    let shed = ordered.iter().filter(|(_, s)| matches!(s.sample.outcome, Outcome::Shed(_))).count();
    let exec_hits = exec_hit_share(&before, &after);
    check_cache_promise(cfg.workload, exec_hits, &mut failures);

    let metrics: Metrics = vec![
        ("datagen.refgraph_ms", ms(refgraph)),
        ("model.peg_build_ms", ms(peg)),
        ("offline.index_build_ms", ms(index)),
        ("offline.index_entries", index_entries as f64),
        ("offline.index_bytes", index_bytes as f64),
        ("online.prepare_us", median_us(&rec.durations(ONLINE_PHASES[0]))),
        ("online.retrieve_us", median_us(&rec.durations(ONLINE_PHASES[1]))),
        ("online.join_us", median_us(&rec.durations(ONLINE_PHASES[2]))),
        ("online.reduce_us", median_us(&rec.durations(ONLINE_PHASES[3]))),
        ("online.generate_us", median_us(&rec.durations(ONLINE_PHASES[4]))),
        ("online.prepare_share", ratio(phase_ns[0], phases_total)),
        ("online.retrieve_share", ratio(phase_ns[1], phases_total)),
        ("online.join_share", ratio(phase_ns[2], phases_total)),
        ("online.reduce_share", ratio(phase_ns[3], phases_total)),
        ("online.generate_share", ratio(phase_ns[4], phases_total)),
        ("online.raw_candidates", counts.raw_candidates as f64),
        ("online.pruned_candidates", counts.pruned_candidates as f64),
        ("online.final_candidates", counts.final_candidates as f64),
        ("online.message_rounds", counts.message_rounds as f64),
        ("online.frontier_evals", counts.frontier_evals as f64),
        ("online.matches", counts.matches as f64),
        (
            "online.prune_keep_ratio",
            ratio(counts.pruned_candidates as f64, counts.raw_candidates as f64),
        ),
        (
            "online.reduce_keep_ratio",
            ratio(counts.final_candidates as f64, counts.pruned_candidates as f64),
        ),
        ("plan_cache.hit_share", ratio(plan_hits as f64, n_queries)),
        ("exec_cache.hit_share", exec_hits),
        ("exec_cache.bytes", after.exec_bytes as f64),
        ("exec_cache.evictions", (after.exec_evictions - before.exec_evictions) as f64),
        ("serve.exec_us", median(&exec_us).unwrap_or(0.0)),
        ("serve.overhead_us", median(&overhead_us).unwrap_or(0.0)),
        ("serve.request_bytes", sum(&|s| s.sample.request_bytes as f64) / ordered.len() as f64),
        ("serve.reply_bytes", reply_bytes / ordered.len() as f64),
        ("serve.shed", shed as f64),
        ("client.encode_us", median_us(&rec.durations("client.encode"))),
        ("client.decode_us", median_us(&rec.durations("client.decode"))),
        ("pegwire.parse_ns_per_byte", ratio(decode_ns, reply_bytes)),
        ("pegwire.encode_ns_per_byte", ratio(sum(&|s| s.reencode_ns as f64), reply_bytes)),
        ("pegshard.build_ms", shards.build_ms),
        ("pegshard.replication_factor", shards.replication_factor),
        ("pegshard.retrieve_us", median(&shards.retrieve_us).unwrap_or(0.0)),
        ("pegshard.reply_encode_us", median(&shards.reply_encode_us).unwrap_or(0.0)),
        ("pegshard.reply_decode_us", median(&shards.reply_decode_us).unwrap_or(0.0)),
        ("pegshard.reply_bytes", shards.reply_bytes as f64 / probe_queries.len() as f64),
        (
            "pegshard.wire_bytes_per_query",
            (after.worker_bytes - before.worker_bytes) as f64 / n_queries,
        ),
        ("live.apply_ops_ms", apply_ms),
        ("live.rebuild_ms", rebuild_ms),
        ("live.speedup_vs_rebuild", ratio(rebuild_ms, apply_ms)),
        ("live.dirty_nodes", dirty_nodes as f64),
        ("live.reused_components", reused_components as f64),
        ("trace.overhead_share", traced_wall.as_secs_f64() / untraced_wall.as_secs_f64() - 1.0),
        ("trace.residual_share", rec.residual_share("client.request")),
    ];
    let extra = vec![
        ("trace_requests", Json::from(ordered.len())),
        ("trace_queries", Json::from(query_samples.len())),
        ("shard_probe_queries", Json::from(probe_queries.len())),
        ("serve.update_p50_ms", median(&update_ms).map_or(Json::Null, Json::from)),
        ("pegshard.worker_rtt_p50_us", Json::from(after.worker_rtt_p50_us)),
        ("pegshard.served_replication_factor", replication_served.map_or(Json::Null, Json::from)),
        ("error_share", Json::from(failures.len() as f64 / ordered.len() as f64)),
    ];
    Ok(RunRecord { metrics, extra, attempted: ordered.len(), failures, trace: Some(rec) })
}

/// Queries the shard-layer probe runs (at most one update round's worth,
/// so they all precede the first mutation).
const SHARD_PROBE_QUERIES: usize = 24;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{sizing, DEFAULT_SECONDS};

    /// The gate against itself: right answers (over a graph mutated in
    /// step) pass; a one-bit change and a shed request each fail once.
    #[test]
    fn gate_catches_wrong_and_shed_replies() {
        let (state, _) = GraphState::build(&graph_spec(crate::spec::SMOKE_GRAPH_SIZE));
        let s = sizing(Workload::LiveUpdates, DEFAULT_SECONDS, true);
        let plan = plan(Workload::LiveUpdates, 3, &s, &state.refs);
        let requests = &plan.timed[0];
        // Honest outcomes: answer every query on a graph mutated in step.
        let mut current = GraphState::compile(state.refs.clone()).0;
        let mut outcomes: Vec<Outcome> = Vec::new();
        for r in requests {
            outcomes.push(match &r.op {
                Op::Query { query, alpha, limit } => Outcome::Answer {
                    answer: current.answer(query, *alpha, *limit),
                    exec_us: 1,
                    plan_from_cache: false,
                },
                Op::Update { ops } => {
                    current = current.apply(ops).state;
                    Outcome::Updated { update_us: 1 }
                }
            });
        }
        let run = |outcomes: &[Outcome]| {
            let served: Vec<(&Request, &Outcome)> = requests.iter().zip(outcomes).collect();
            let mut failures = Vec::new();
            gate(GraphState::compile(state.refs.clone()).0, &served, &mut failures);
            failures
        };
        assert_eq!(run(&outcomes), Vec::<String>::new());

        let nonempty = outcomes
            .iter()
            .position(|o| matches!(o, Outcome::Answer { answer, .. } if answer.n_matches() > 0))
            .expect("some query has matches");
        let mut flipped = outcomes.clone();
        if let Outcome::Answer { answer, .. } = &mut flipped[nonempty] {
            answer.prob_bits[0].0 ^= 1;
        }
        assert_eq!(run(&flipped).len(), 1);

        let mut shed = outcomes.clone();
        shed[0] = Outcome::Shed("overloaded: queue full".to_string());
        assert_eq!(run(&shed), vec!["request 0: got overloaded: queue full".to_string()]);

        // A later pass is held to the first: the same there, one failure each here.
        let differing = |again: &[Outcome]| {
            let mut failures = Vec::new();
            let (first, again): (Vec<_>, Vec<_>) =
                (outcomes.iter().collect(), again.iter().collect());
            same_as_first_pass(1, &first, &again, &mut failures);
            failures.len()
        };
        assert_eq!((differing(&outcomes), differing(&flipped), differing(&shed)), (0, 1, 1));
    }
}
