//! `pegcli` — command-line front end for the pegmatch system.
//!
//! ```text
//! pegcli generate --kind synthetic --size 2000 --out graph.kv
//! pegcli index --graph graph.kv --out index.kv --max-len 2 --beta 0.3
//! pegcli query --graph graph.kv --index index.kv \
//!              --pattern '(x:l0)-(y:l1), (y)-(z:l0)' --alpha 0.4
//! pegcli topk  --graph graph.kv --index index.kv \
//!              --pattern '(x:l0)-(y:l1)' --k 5
//! ```
//!
//! Graphs and indexes persist in kvstore B+-tree files, mirroring the
//! paper's offline/online split. Note: the persisted graph is the *entity*
//! graph; identity marginals are rebuilt from reference sets only when the
//! graph is generated in-process, so `query` recomputes the existence model
//! from the generator (same seed) for `--kind` workloads.

use graphstore::persist::save_entity_graph;
use kvstore::BTreeStore;
use pathindex::disk::{load_index, save_index};
use pathindex::PathIndexConfig;
use pegmatch::model::{Peg, PegBuilder};
use pegmatch::offline::{ContextInfo, OfflineIndex, OfflineOptions, OfflineStats};
use pegmatch::online::{ExecCache, PlanCache, QueryOptions, QueryPipeline};
use pegmatch::query::{QNode, QueryGraph};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        exit(2);
    };
    let flags = parse_flags(&args[1..]);
    let result = match cmd.as_str() {
        "generate" => cmd_generate(&flags),
        "index" => cmd_index(&flags),
        "query" => cmd_query(&flags, false),
        "topk" => cmd_query(&flags, true),
        "stats" => cmd_stats(&flags),
        "serve" => cmd_serve(&flags),
        "shard-worker" => cmd_shard_worker(&flags),
        "client" => cmd_client(&flags),
        "explain" => cmd_explain(&flags),
        "--help" | "-h" | "help" => {
            usage();
            Ok(())
        }
        other => Err(format!("unknown command: {other}")),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        exit(1);
    }
}

fn usage() {
    eprintln!(
        "pegcli — subgraph pattern matching over uncertain graphs\n\
         \n\
         commands:\n\
         \x20 generate --kind synthetic|dblp|imdb --size N --out FILE [--seed S] [--uncertainty F]\n\
         \x20 index    --kind ... --size N [--seed S] --out FILE [--max-len L] [--beta B]\n\
         \x20 query    --kind ... --size N [--seed S] [--index FILE]\n\
         \x20          --pattern '(x:a)-(y:b), (y)-(z:a)' [--alpha A]\n\
         \x20          [--explain] [--limit N] [--threads T]\n\
         \x20          [--repeat N] [--plan-cache-stats] [--exec-cache-bytes N]\n\
         \x20          (exec cache is off by default for one-shot runs; a nonzero byte\n\
         \x20          budget reuses floor-threshold retrievals across --repeat runs)\n\
         \x20          (or: --labels a,b,c --edges 0-1,1-2)\n\
         \x20 topk     (same as query, plus --k K)\n\
         \x20 stats    --kind ... --size N [--seed S]\n\
         \x20 serve    --addr HOST:PORT [--kind ... --size N [--seed S] [--max-len L] [--beta B]\n\
         \x20          [--name G]] [--max-sessions N] [--queue-depth N]\n\
         \x20          [--deadline-ms MS] [--max-connections N]\n\
         \x20          [--workers A1,A2,...]  (shard the graph over shard-worker processes,\n\
         \x20          one shard per worker — the only way a served graph is sharded;\n\
         \x20          needs --kind)\n\
         \x20          [--worker-timeout-ms MS]   (wire deadline per worker exchange)\n\
         \x20          [--exec-cache-bytes N]   (execution-cache byte budget; default 64 MiB,\n\
         \x20          0 disables)\n\
         \x20          [--slow-query-ms MS]   (log a structured JSON line to stderr for every\n\
         \x20          query slower than MS, and count it in the metrics registry)\n\
         \x20          [--debug-sleep]   (honor debug_sleep_ms requests — admission drills)\n\
         \x20 shard-worker --addr HOST:PORT [--max-sessions N] [--queue-depth N]\n\
         \x20          (a shard-worker process; a coordinator assigns it a shard via\n\
         \x20          load_graph workers=[...] and scatters shard_retrieve requests to it)\n\
         \x20 client   --addr HOST:PORT [--json REQUEST] [--pretty]   (no --json: one request\n\
         \x20          line per stdin line; replies print to stdout; --json exits non-zero on\n\
         \x20          a structured error reply; --pretty renders stats replies' per-worker\n\
         \x20          counters as a table on stderr)\n\
         \x20 client   --addr HOST:PORT --metrics [--poll N] [--interval-ms MS]   (fetch the\n\
         \x20          server's metrics registry — counters + latency histograms — and render\n\
         \x20          it as tables; --poll repeats N times, MS apart)\n\
         \x20 explain  --addr HOST:PORT --pattern P [--graph G] [--alpha A] [--limit N]\n\
         \x20          [--threads T]   (run the query traced on the server and pretty-print\n\
         \x20          the plan summary plus the full span tree, flame-style; on a\n\
         \x20          distributed graph the tree includes worker-side scatter spans)"
    );
}

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            // A flag followed by another flag (or nothing) is boolean.
            match args.get(i + 1).filter(|v| !v.starts_with("--")) {
                Some(value) => {
                    out.insert(name.to_string(), value.clone());
                    i += 2;
                }
                None => {
                    out.insert(name.to_string(), String::new());
                    i += 1;
                }
            }
        } else {
            i += 1;
        }
    }
    out
}

fn get<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    flags.get(key).map(|s| s.as_str()).ok_or_else(|| format!("missing --{key}"))
}

/// The generator spec the `--kind/--size/--seed/--uncertainty` flags
/// name — the same [`pegserve::GraphSpec`] a `load_graph` request decodes
/// to, so the CLI and the server cannot map a spec to different graphs.
fn spec_from_flags(flags: &HashMap<String, String>) -> Result<pegserve::GraphSpec, String> {
    let size: usize = get(flags, "size")?.parse().map_err(|_| "bad --size".to_string())?;
    let seed: u64 = flags.get("seed").map(|s| s.parse().unwrap_or(42)).unwrap_or(42);
    let uncertainty: f64 =
        flags.get("uncertainty").map(|s| s.parse().unwrap_or(0.2)).unwrap_or(0.2);
    pegserve::GraphSpec::new(get(flags, "kind")?, size, seed, uncertainty).map_err(|e| e.message)
}

fn peg_from_flags(flags: &HashMap<String, String>) -> Result<Peg, String> {
    let refs = spec_from_flags(flags)?.build_refs();
    PegBuilder::new().build(&refs).map_err(|e| e.to_string())
}

fn cmd_generate(flags: &HashMap<String, String>) -> Result<(), String> {
    let out = get(flags, "out")?;
    let peg = peg_from_flags(flags)?;
    let mut store = BTreeStore::create(std::path::Path::new(out)).map_err(|e| e.to_string())?;
    save_entity_graph(&peg.graph, &mut store).map_err(|e| e.to_string())?;
    store.flush().map_err(|e| e.to_string())?;
    println!(
        "wrote entity graph: {} nodes, {} edges -> {} ({} KiB)",
        peg.graph.n_nodes(),
        peg.graph.n_edges(),
        out,
        store.file_len() / 1024
    );
    Ok(())
}

fn offline_opts(flags: &HashMap<String, String>) -> OfflineOptions {
    let max_len: usize = flags.get("max-len").map(|s| s.parse().unwrap_or(2)).unwrap_or(2);
    let beta: f64 = flags.get("beta").map(|s| s.parse().unwrap_or(0.3)).unwrap_or(0.3);
    OfflineOptions { index: PathIndexConfig { max_len, beta, ..Default::default() } }
}

fn cmd_index(flags: &HashMap<String, String>) -> Result<(), String> {
    let out = get(flags, "out")?;
    let peg = peg_from_flags(flags)?;
    let offline = OfflineIndex::build(&peg, &offline_opts(flags)).map_err(|e| e.to_string())?;
    let mut store = BTreeStore::create(std::path::Path::new(out)).map_err(|e| e.to_string())?;
    save_index(&offline.paths, &mut store).map_err(|e| e.to_string())?;
    store.flush().map_err(|e| e.to_string())?;
    println!(
        "wrote path index: {} entries across {} sequences in {} -> {} ({} KiB)",
        offline.paths.n_entries(),
        offline.paths.n_sequences(),
        bench::fmt_duration(offline.stats.index_time),
        out,
        store.file_len() / 1024
    );
    Ok(())
}

fn parse_query(flags: &HashMap<String, String>, peg: &Peg) -> Result<QueryGraph, String> {
    let table = peg.graph.label_table();
    // Preferred form: the textual pattern syntax.
    if let Some(pattern) = flags.get("pattern") {
        return pegmatch::pattern::parse_pattern(pattern, table).map_err(|e| e.to_string());
    }
    // Legacy form: --labels a,b,c --edges 0-1,1-2.
    let label_names: Vec<&str> = get(flags, "labels")?.split(',').collect();
    let labels = label_names
        .iter()
        .map(|n| {
            table.get(n).ok_or_else(|| format!("unknown label '{n}' (have {:?})", table.names()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut edges: Vec<(QNode, QNode)> = Vec::new();
    if let Some(spec) = flags.get("edges") {
        for pair in spec.split(',').filter(|s| !s.is_empty()) {
            let (a, b) =
                pair.split_once('-').ok_or_else(|| format!("bad edge '{pair}', expected A-B"))?;
            let a: QNode = a.parse().map_err(|_| format!("bad edge endpoint '{a}'"))?;
            let b: QNode = b.parse().map_err(|_| format!("bad edge endpoint '{b}'"))?;
            edges.push((a, b));
        }
    }
    QueryGraph::new(labels, edges).map_err(|e| e.to_string())
}

fn cmd_stats(flags: &HashMap<String, String>) -> Result<(), String> {
    let peg = peg_from_flags(flags)?;
    let s = graphstore::GraphStats::compute(&peg.graph);
    println!("entity graph statistics");
    println!("  nodes:              {}", s.n_nodes);
    println!("  edges:              {}", s.n_edges);
    println!("  avg degree:         {:.2}", s.avg_degree);
    println!("  max degree:         {}", s.max_degree);
    println!("  components:         {} (largest {})", s.n_components, s.largest_component);
    println!("  uncertain nodes:    {}", s.uncertain_nodes);
    println!("  uncertain edges:    {}", s.uncertain_edges);
    println!("  merged entities:    {}", s.merged_entities);
    println!("  identity components: {}", peg.existence.n_components());
    Ok(())
}

/// Online options from flags: `--threads 0` (default) = all cores,
/// `--threads 1` = sequential; results are identical either way.
fn query_opts(flags: &HashMap<String, String>) -> QueryOptions {
    let threads: usize = flags.get("threads").map(|s| s.parse().unwrap_or(0)).unwrap_or(0);
    QueryOptions { threads, ..Default::default() }
}

fn server_config(flags: &HashMap<String, String>) -> pegserve::ServerConfig {
    pegserve::ServerConfig {
        max_sessions: flags.get("max-sessions").and_then(|s| s.parse().ok()).unwrap_or(4),
        queue_depth: flags.get("queue-depth").and_then(|s| s.parse().ok()).unwrap_or(16),
        deadline: std::time::Duration::from_millis(
            flags.get("deadline-ms").and_then(|s| s.parse().ok()).unwrap_or(5000),
        ),
        max_connections: flags.get("max-connections").and_then(|s| s.parse().ok()).unwrap_or(256),
        allow_debug_sleep: flags.contains_key("debug-sleep"),
        // Servers default the execution cache on (repeated-shape mixes
        // are their whole reason to exist); --exec-cache-bytes 0 disables.
        exec_cache_bytes: flags
            .get("exec-cache-bytes")
            .and_then(|s| s.parse().ok())
            .unwrap_or(pegmatch::online::DEFAULT_EXEC_CACHE_BYTES),
        slow_query_ms: flags.get("slow-query-ms").and_then(|s| s.parse().ok()),
    }
}

/// `pegcli serve`: boot the multi-client query server. With `--kind` a
/// graph is loaded before listening (named by `--name`, default
/// `default`) through [`pegserve::Server::load_graph`] — exactly what a
/// client's `load_graph` would do; otherwise clients send one. With
/// `--workers a,b,...` (requires `--kind`) the graph goes distributed:
/// one shard per worker process, retrieval scattered over TCP,
/// everything else (and every result bit) identical.
fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), String> {
    let addr = flags.get("addr").map(String::as_str).unwrap_or("127.0.0.1:7878");
    let server = pegserve::Server::bind(addr, server_config(flags)).map_err(|e| e.to_string())?;
    let workers: Vec<String> = flags
        .get("workers")
        .map(|w| w.split(',').filter(|a| !a.is_empty()).map(str::to_string).collect())
        .unwrap_or_default();
    if !workers.is_empty() && !flags.contains_key("kind") {
        return Err("--workers needs --kind: workers rebuild their shard from the spec".into());
    }
    if flags.contains_key("kind") {
        let timeout_ms: u64 =
            flags.get("worker-timeout-ms").and_then(|s| s.parse().ok()).unwrap_or(30_000);
        let load = pegserve::proto::LoadGraph {
            name: flags.get("name").map(String::as_str).unwrap_or("default").to_string(),
            spec: spec_from_flags(flags)?,
            index: offline_opts(flags).index,
            workers,
            worker_timeout: std::time::Duration::from_millis(timeout_ms),
        };
        // The reply a client's `load_graph` would have got: node, edge and
        // shard counts, replication, build time.
        println!("loaded graph: {}", server.load_graph(&load).map_err(|e| e.to_string())?);
    }
    serve_on(server, "pegserve")
}

/// Announces the bound address (flushed: scripts wait for the line) and
/// serves until shutdown.
fn serve_on(server: pegserve::Server, what: &str) -> Result<(), String> {
    use std::io::Write as _;
    println!("{what} listening on {}", server.local_addr());
    std::io::stdout().flush().ok();
    server.serve().map_err(|e| e.to_string())
}

/// `pegcli shard-worker`: boot a shard-worker process. A worker is a
/// `pegserve` server that starts empty and waits for a coordinator to
/// assign it a shard (`shard_load`, sent by the coordinator's
/// `load_graph` with `workers=[...]`), then answers `shard_retrieve`
/// scatters. It handles `shutdown` like any server, and a coordinator
/// dying mid-exchange just closes the connection (Rust ignores SIGPIPE;
/// the write error ends that handler thread, the worker keeps serving).
fn cmd_shard_worker(flags: &HashMap<String, String>) -> Result<(), String> {
    let addr = flags.get("addr").map(String::as_str).unwrap_or("127.0.0.1:7879");
    let server = pegserve::Server::bind(addr, server_config(flags)).map_err(|e| e.to_string())?;
    serve_on(server, "pegshard worker")
}

/// `pegcli client`: send line-delimited JSON requests to a running server.
/// `--json REQ` sends one request; without it, each stdin line is a
/// request. Reply lines print to stdout verbatim (greppable in scripts).
///
/// In `--json` one-shot mode the process exits non-zero when the server's
/// reply is a structured error (`"ok":false` — `bad_request`,
/// `unknown_graph`, `not_found`, `overloaded`, `timeout`, `internal`), so
/// scripts can branch on `$?` instead of parsing every reply. The reply
/// line still prints to stdout either way.
/// With `--pretty`, renders a `stats` reply's per-worker transport
/// counters as a table on **stderr** (stdout keeps the raw greppable
/// reply line either way).
fn pretty_print_workers(reply: &pegserve::Json) {
    use pegserve::Json;
    // Server-wide execution-cache counters (stats replies from a server
    // running with a nonzero exec-cache budget).
    if let Some(ec) = reply.get("exec_cache") {
        let num = |k: &str| ec.get(k).and_then(Json::as_u64).unwrap_or(0);
        let rate = ec.get("hit_rate").and_then(Json::as_f64).unwrap_or(0.0);
        eprintln!(
            "exec cache: {} hit(s), {} miss(es) ({:.0}% hit rate; {} first sight(s), {} \
             admitted), {} entr(ies) holding {} KiB of {} KiB budget, {} eviction(s)",
            num("hits"),
            num("misses"),
            rate * 100.0,
            num("first_sight"),
            num("admitted"),
            num("entries"),
            num("bytes") / 1024,
            num("budget") / 1024,
            num("evictions"),
        );
    }
    let Some(graphs) = reply.get("graphs").and_then(Json::as_arr) else {
        return;
    };
    for g in graphs {
        let name = g.get("name").and_then(Json::as_str).unwrap_or("?");
        if let Some(ec) = g.get("exec_cache") {
            let num = |k: &str| ec.get(k).and_then(Json::as_u64).unwrap_or(0);
            eprintln!(
                "exec cache of graph '{name}': epoch {}, {} entr(ies), {} KiB",
                num("epoch"),
                num("entries"),
                num("bytes") / 1024,
            );
        }
        let Some(workers) = g.get("workers").and_then(Json::as_arr) else {
            continue;
        };
        eprintln!("workers of graph '{name}':");
        eprintln!(
            "  {:>5}  {:<21}  {:>9}  {:>12}  {:>12}  {:>10}  {:>9}  {:>9}  {:>10}  {:>12}",
            "shard",
            "addr",
            "requests",
            "bytes tx",
            "bytes rx",
            "reconnects",
            "p50",
            "p99",
            "tombstones",
            "inflight hwm"
        );
        for w in workers {
            let num = |k: &str| w.get(k).and_then(Json::as_u64).unwrap_or(0);
            eprintln!(
                "  {:>5}  {:<21}  {:>9}  {:>12}  {:>12}  {:>10}  {:>9}  {:>9}  {:>10}  {:>12}",
                num("shard"),
                w.get("addr").and_then(Json::as_str).unwrap_or("?"),
                num("requests"),
                num("bytes_tx"),
                num("bytes_rx"),
                num("reconnects"),
                bench::fmt_duration(std::time::Duration::from_micros(num("p50_us"))),
                bench::fmt_duration(std::time::Duration::from_micros(num("p99_us"))),
                num("mux_tombstones"),
                num("mux_inflight_hwm"),
            );
        }
    }
}

fn us(v: u64) -> String {
    bench::fmt_duration(std::time::Duration::from_micros(v))
}

/// One span tag value as display text (`k=v` tails on span lines).
fn tag_text(v: &pegserve::Json) -> String {
    use pegserve::Json;
    match v {
        Json::Str(s) => s.clone(),
        Json::Num(n) if n.fract() == 0.0 && n.abs() < 1e15 => format!("{}", *n as i64),
        other => other.to_string(),
    }
}

/// Indented flame-style rendering of one span subtree: name, wall time,
/// a bar proportional to the root's wall time, then `k=v` tags.
/// Children follow in attach order — which the tracer guarantees is
/// stage order locally and shard-index order for scatter units, so the
/// same query renders the same tree every run.
fn render_span(out: &mut String, node: &pegserve::Json, depth: usize, root_us: u64) {
    use pegserve::Json;
    let name = node.get("name").and_then(Json::as_str).unwrap_or("?");
    let elapsed = node.get("elapsed_us").and_then(Json::as_u64).unwrap_or(0);
    let share = if root_us > 0 { (elapsed as f64 / root_us as f64).min(1.0) } else { 0.0 };
    let bar = "#".repeat((share * 24.0).round() as usize);
    let mut tags: Vec<String> = Vec::new();
    if let Some(pairs) = node.get("tags").and_then(Json::as_arr) {
        for p in pairs {
            if let Some(pair) = p.as_arr().filter(|p| p.len() == 2) {
                if let Some(k) = pair[0].as_str() {
                    tags.push(format!("{k}={}", tag_text(&pair[1])));
                }
            }
        }
    }
    let label = format!("{:indent$}{name}", "", indent = depth * 2);
    let _ = writeln!(out, "  {label:<30} {:>9}  {bar:<24}  {}", us(elapsed), tags.join(" "));
    if let Some(children) = node.get("children").and_then(Json::as_arr) {
        for c in children {
            render_span(out, c, depth + 1, root_us);
        }
    }
}

/// Renders a `metrics` reply body: the counter table, then a histogram
/// table with the registry's snapshot quantiles.
fn render_metrics(out: &mut String, metrics: &pegserve::Json) {
    use pegserve::Json;
    if let Some(counters) = metrics.get("counters").and_then(Json::as_arr) {
        let _ = writeln!(out, "counters:");
        for c in counters {
            let _ = writeln!(
                out,
                "  {:<28} {:>12}",
                c.get("name").and_then(Json::as_str).unwrap_or("?"),
                c.get("value").and_then(Json::as_u64).unwrap_or(0),
            );
        }
    }
    if let Some(hists) = metrics.get("histograms").and_then(Json::as_arr) {
        let _ = writeln!(out, "histograms:");
        let _ = writeln!(
            out,
            "  {:<28} {:>9}  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}",
            "name", "count", "mean", "p50", "p90", "p99", "max"
        );
        for h in hists {
            let num = |k: &str| h.get(k).and_then(Json::as_u64).unwrap_or(0);
            let _ = writeln!(
                out,
                "  {:<28} {:>9}  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}",
                h.get("name").and_then(Json::as_str).unwrap_or("?"),
                num("count"),
                us(num("mean_us")),
                us(num("p50_us")),
                us(num("p90_us")),
                us(num("p99_us")),
                us(num("max_us")),
            );
        }
    }
}

/// `pegcli client --metrics`: fetch the server's metrics registry and
/// render it; `--poll N` repeats N times, `--interval-ms` apart, so a
/// terminal can watch histograms fill under load.
fn cmd_metrics(flags: &HashMap<String, String>, addr: &str) -> Result<(), String> {
    use pegserve::Json;
    let poll: usize = flags.get("poll").and_then(|s| s.parse().ok()).unwrap_or(1).max(1);
    let interval_ms: u64 = flags.get("interval-ms").and_then(|s| s.parse().ok()).unwrap_or(1000);
    let mut client = pegserve::Client::connect(addr).map_err(|e| e.to_string())?;
    let request = pegserve::obj().field("op", "metrics").build().to_string();
    for round in 0..poll {
        if round > 0 {
            std::thread::sleep(std::time::Duration::from_millis(interval_ms));
        }
        let line = client.request_line(&request).map_err(|e| e.to_string())?;
        let reply = Json::parse(&line).map_err(|_| "unparseable metrics reply".to_string())?;
        if reply.get("ok") != Some(&Json::Bool(true)) {
            println!("{line}");
            return Err("server replied with a structured error".into());
        }
        let mut out = String::new();
        if poll > 1 {
            let _ = writeln!(out, "--- poll {}/{poll} ---", round + 1);
        }
        match reply.get("metrics") {
            Some(m) => render_metrics(&mut out, m),
            None => out = format!("{line}\n"),
        }
        // One write per report: a reader that stops at its first match
        // (`| grep -q`) must not turn the remaining lines into a
        // broken-pipe panic.
        print!("{out}");
    }
    Ok(())
}

/// `pegcli explain`: run one query traced on the server and render the
/// reply — match count, plan summary, pipeline stage times, scatter
/// stats when the graph is distributed, and the full stitched span tree
/// (worker-side scatter spans included on a distributed graph).
fn cmd_explain(flags: &HashMap<String, String>) -> Result<(), String> {
    use pegserve::Json;
    let addr = get(flags, "addr")?;
    let pattern = get(flags, "pattern")?;
    let mut req = pegserve::obj().field("op", "explain").field("pattern", pattern);
    if let Some(g) = flags.get("graph") {
        req = req.field("graph", g.as_str());
    }
    if let Some(a) = flags.get("alpha").and_then(|s| s.parse::<f64>().ok()) {
        req = req.field("alpha", a);
    }
    if let Some(n) = flags.get("limit").and_then(|s| s.parse::<u64>().ok()) {
        req = req.field("limit", n);
    }
    if let Some(t) = flags.get("threads").and_then(|s| s.parse::<u64>().ok()) {
        req = req.field("threads", t);
    }
    let mut client = pegserve::Client::connect(addr).map_err(|e| e.to_string())?;
    let line = client.request_line(&req.build().to_string()).map_err(|e| e.to_string())?;
    let reply = Json::parse(&line).map_err(|_| "unparseable explain reply".to_string())?;
    if reply.get("ok") != Some(&Json::Bool(true)) {
        println!("{line}");
        let code = reply.get("error").and_then(Json::as_str).unwrap_or("unknown");
        return Err(format!("server replied with a structured '{code}' error"));
    }
    let num = |k: &str| reply.get(k).and_then(Json::as_u64).unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "explain: graph '{}', trace {}, {} match(es){} in {}",
        reply.get("graph").and_then(Json::as_str).unwrap_or("?"),
        num("trace_id"),
        num("n"),
        if reply.get("truncated") == Some(&Json::Bool(true)) { " (truncated)" } else { "" },
        us(num("elapsed_us")),
    );
    if let Some(plan) = reply.get("plan") {
        let p = |k: &str| plan.get(k).and_then(Json::as_u64).unwrap_or(0);
        let _ = writeln!(
            out,
            "plan: {} path(s), {} in {}{}",
            p("n_paths"),
            if plan.get("from_cache") == Some(&Json::Bool(true)) {
                "shape-cache hit"
            } else {
                "planned fresh"
            },
            us(p("plan_us")),
            plan.get("shape_hash")
                .and_then(Json::as_str)
                .map(|h| format!(", shape {h}"))
                .unwrap_or_default(),
        );
    }
    if let Some(pl) = reply.get("pipeline") {
        let p = |k: &str| pl.get(k).and_then(Json::as_u64).unwrap_or(0);
        let _ = writeln!(
            out,
            "pipeline: decompose {}, candidates {}, join {}, reduction {}, generation {}\
             {}{}",
            us(p("decompose_us")),
            us(p("candidates_us")),
            us(p("join_us")),
            us(p("reduction_us")),
            us(p("generation_us")),
            if pl.get("exec_cache_hit") == Some(&Json::Bool(true)) {
                " (exec-cache hit)"
            } else {
                ""
            },
            pl.get("message_rounds")
                .and_then(Json::as_u64)
                .map(|r| format!(", {r} message round(s)"))
                .unwrap_or_default(),
        );
        if p("frontier_evals") > 0 || p("full_evals_avoided") > 0 {
            let _ = writeln!(
                out,
                "reduction frontier: {} eval(s), {} avoided, per-round {}",
                p("frontier_evals"),
                p("full_evals_avoided"),
                pl.get("round_frontiers").map(|v| v.to_string()).unwrap_or_default(),
            );
        }
    }
    if let Some(sc) = reply.get("scatter") {
        let p = |k: &str| sc.get(k).and_then(Json::as_u64).unwrap_or(0);
        let _ = writeln!(
            out,
            "scatter: per-shard pruned {}, {} distinct, {} duplicate(s) dropped, retrieval {}",
            sc.get("per_shard_pruned").map(|v| v.to_string()).unwrap_or_default(),
            p("pruned_distinct"),
            p("duplicates_dropped"),
            us(p("retrieve_us")),
        );
    }
    if let Some(span) = reply.get("span") {
        let root_us = span.get("elapsed_us").and_then(Json::as_u64).unwrap_or(0);
        let _ = writeln!(out, "span tree:");
        render_span(&mut out, span, 0, root_us);
    }
    print!("{out}"); // one write, as in `cmd_metrics`
    Ok(())
}

fn cmd_client(flags: &HashMap<String, String>) -> Result<(), String> {
    let addr = get(flags, "addr")?;
    if flags.contains_key("metrics") {
        return cmd_metrics(flags, addr);
    }
    let pretty = flags.contains_key("pretty");
    let mut client = pegserve::Client::connect(addr).map_err(|e| e.to_string())?;
    if let Some(req) = flags.get("json") {
        let reply = client.request_line(req).map_err(|e| e.to_string())?;
        println!("{reply}");
        if let Ok(parsed) = pegserve::Json::parse(&reply) {
            if pretty {
                pretty_print_workers(&parsed);
            }
            if parsed.get("ok") == Some(&pegserve::Json::Bool(false)) {
                let code = parsed
                    .get("error")
                    .and_then(pegserve::Json::as_str)
                    .unwrap_or("unknown")
                    .to_string();
                return Err(format!("server replied with a structured '{code}' error"));
            }
        }
        return Ok(());
    }
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        use std::io::BufRead as _;
        if stdin.lock().read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            return Ok(());
        }
        if line.trim().is_empty() {
            continue;
        }
        let reply = client.request_line(line.trim()).map_err(|e| e.to_string())?;
        println!("{reply}");
        if pretty {
            if let Ok(parsed) = pegserve::Json::parse(&reply) {
                pretty_print_workers(&parsed);
            }
        }
    }
}

fn cmd_query(flags: &HashMap<String, String>, topk: bool) -> Result<(), String> {
    let peg = peg_from_flags(flags)?;
    let query = parse_query(flags, &peg)?;
    // Load the index from disk when given, otherwise build it fresh.
    let offline = match flags.get("index") {
        Some(path) => {
            let store = BTreeStore::open(std::path::Path::new(path)).map_err(|e| e.to_string())?;
            let paths = load_index(&store).map_err(|e| e.to_string())?;
            let context = ContextInfo::build(&peg.graph);
            OfflineIndex { context, paths, stats: OfflineStats::default() }
        }
        None => OfflineIndex::build(&peg, &offline_opts(flags)).map_err(|e| e.to_string())?,
    };
    let want_cache_stats = flags.contains_key("plan-cache-stats");
    let cache = std::sync::Arc::new(PlanCache::new());
    // Off by default for a single-shot CLI run (nothing repeats, so a
    // cache is pure overhead); --repeat N with a budget shows the reuse.
    let exec_bytes: usize = flags.get("exec-cache-bytes").and_then(|s| s.parse().ok()).unwrap_or(0);
    let exec_cache = (exec_bytes > 0).then(|| std::sync::Arc::new(ExecCache::new(exec_bytes)));
    let mut pipeline = QueryPipeline::new(&peg, &offline);
    if want_cache_stats {
        pipeline = pipeline.with_plan_cache(cache.clone());
    }
    if let Some(c) = &exec_cache {
        pipeline = pipeline.with_exec_cache(c.clone(), c.next_epoch());
    }
    let repeat: usize = flags.get("repeat").map(|s| s.parse().unwrap_or(1)).unwrap_or(1).max(1);
    let t = std::time::Instant::now();
    let mut result = None;
    for _ in 0..repeat {
        let res = if topk {
            let k: usize = flags.get("k").map(|s| s.parse().unwrap_or(10)).unwrap_or(10);
            pipeline.run_topk(&query, k, 1e-9, &query_opts(flags)).map_err(|e| e.to_string())?
        } else {
            let alpha: f64 = flags.get("alpha").map(|s| s.parse().unwrap_or(0.5)).unwrap_or(0.5);
            let limit: Option<usize> = flags.get("limit").and_then(|s| s.parse().ok());
            pipeline
                .run_limited(&query, alpha, limit, &query_opts(flags))
                .map_err(|e| e.to_string())?
        };
        result = Some(res);
    }
    let result = result.expect("repeat >= 1");
    println!(
        "{} match(es){} in {}{} (search space 10^{:.1} -> 10^{:.1})",
        result.matches.len(),
        if result.truncated { " (truncated by --limit)" } else { "" },
        bench::fmt_duration(t.elapsed()),
        if repeat > 1 { format!(" over {repeat} runs") } else { String::new() },
        result.stats.log10_ss_index.max(0.0),
        result.stats.log10_ss_final.max(0.0),
    );
    let explain = flags.contains_key("explain");
    for m in result.matches.iter().take(20) {
        if explain {
            let ex = pegmatch::explain::explain(&peg, &query, m);
            print!("{}", ex.render(peg.graph.label_table()));
        } else {
            let ids: Vec<String> = m.nodes.iter().map(|v| format!("e{}", v.0)).collect();
            println!("  [{}]  Pr = {:.6}", ids.join(","), m.prob());
        }
    }
    if result.matches.len() > 20 {
        println!("  ... and {} more", result.matches.len() - 20);
    }
    if want_cache_stats {
        let s = cache.stats();
        println!(
            "plan cache: {} hit(s), {} miss(es) ({:.0}% hit rate), {} shape(s), \
             planning time saved {}",
            s.hits,
            s.misses,
            s.hit_rate() * 100.0,
            s.entries,
            bench::fmt_duration(s.saved),
        );
        for e in cache.entries() {
            println!(
                "  shape {:016x}  hits {:>4}  paths {}  plan cost {}  {}",
                e.shape_hash,
                e.hits,
                e.n_paths,
                bench::fmt_duration(e.build_time),
                pegmatch::pattern::format_pattern(&e.shape, peg.graph.label_table()),
            );
        }
    }
    if let Some(c) = &exec_cache {
        let s = c.stats();
        println!(
            "exec cache: {} hit(s), {} miss(es) ({:.0}% hit rate; {} first sight(s), {} \
             admitted), {} entr(ies) holding {} KiB of {} KiB budget, {} eviction(s)",
            s.hits,
            s.misses,
            s.hit_rate() * 100.0,
            s.first_sight,
            s.admitted,
            s.entries,
            s.bytes / 1024,
            s.budget / 1024,
            s.evictions,
        );
    }
    Ok(())
}
