//! End-to-end tests of the `pegcli` binary: every subcommand, the pattern
//! syntax, explanations, persisted graph/index files, and error paths —
//! exercised through the real executable.

use std::path::PathBuf;
use std::process::{Command, Output};

fn pegcli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pegcli")).args(args).output().expect("pegcli runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("pegcli-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

#[test]
fn help_lists_commands() {
    let out = pegcli(&["help"]);
    assert!(out.status.success());
    let text = stderr(&out);
    for cmd in ["generate", "index", "query", "topk", "stats"] {
        assert!(text.contains(cmd), "help missing `{cmd}`:\n{text}");
    }
}

#[test]
fn unknown_command_fails_cleanly() {
    let out = pegcli(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown command"));
}

#[test]
fn generate_writes_a_store_file() {
    let path = tmp("gen");
    let out = pegcli(&[
        "generate",
        "--kind",
        "synthetic",
        "--size",
        "300",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("wrote entity graph"));
    assert!(path.exists());
    let refs = graphstore::csv::load_ref_graph_csv(&path).expect("generate writes a CSV network");
    assert_eq!(refs.n_refs(), 300);
    std::fs::remove_dir_all(&path).ok();
}

#[test]
fn index_then_query_round_trip() {
    let index = tmp("idx");
    let out = pegcli(&[
        "index",
        "--kind",
        "synthetic",
        "--size",
        "300",
        "--max-len",
        "2",
        "--beta",
        "0.3",
        "--out",
        index.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("wrote path index"));

    // Query against the persisted index; same generator seed regenerates
    // the same graph.
    let out = pegcli(&[
        "query",
        "--kind",
        "synthetic",
        "--size",
        "300",
        "--index",
        index.to_str().unwrap(),
        "--pattern",
        "(x:l0)-(y:l1)",
        "--alpha",
        "0.3",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("match(es)"), "{text}");
    std::fs::remove_file(&index).ok();
}

/// The match lines of a `query` / `topk` listing (the header line carries
/// a wall time, so it is left out).
fn match_lines(out: &Output) -> Vec<String> {
    let text = stdout(out);
    text.lines().filter(|l| l.starts_with("  ")).map(str::to_string).collect()
}

#[test]
fn a_generated_graph_directory_answers_like_the_generator() {
    let dir = tmp("graphdir");
    let index = tmp("graphdir-idx");
    let _ = std::fs::remove_dir_all(&dir);
    let gen = ["--kind", "synthetic", "--size", "300"];
    let out = pegcli(&[&["generate"][..], &gen, &["--out", dir.to_str().unwrap()]].concat());
    assert!(out.status.success(), "{}", stderr(&out));
    let graph = ["--graph", dir.to_str().unwrap()];
    let idx = ["--max-len", "2", "--beta", "0.3", "--out", index.to_str().unwrap()];
    let out = pegcli(&[&["index"][..], &graph, &idx].concat());
    assert!(out.status.success(), "{}", stderr(&out));
    let q = ["--pattern", "(x:l0)-(y:l1)-(z:l2)", "--alpha", "0.2"];
    let from_dir =
        pegcli(&[&["query"][..], &graph, &["--index", index.to_str().unwrap()], &q].concat());
    let from_spec = pegcli(&[&["query"][..], &gen, &q].concat());
    assert!(from_dir.status.success(), "{}", stderr(&from_dir));
    assert!(from_spec.status.success(), "{}", stderr(&from_spec));
    let listing = match_lines(&from_dir);
    assert!(listing.len() > 1, "{}", stdout(&from_dir));
    assert_eq!(listing, match_lines(&from_spec));
    let count = |o: &Output| stdout(o).split_whitespace().next().map(str::to_string);
    assert_eq!(count(&from_dir), count(&from_spec));
    // `stats` and `topk` read the directory too.
    let stats = pegcli(&[&["stats"][..], &graph].concat());
    assert_eq!(stdout(&stats), stdout(&pegcli(&[&["stats"][..], &gen].concat())));
    let k = ["--pattern", "(x:l0)-(y:l1)", "--k", "3"];
    let topk = pegcli(&[&["topk"][..], &graph, &k].concat());
    assert!(topk.status.success(), "{}", stderr(&topk));
    assert_eq!(match_lines(&topk), match_lines(&pegcli(&[&["topk"][..], &gen, &k].concat())));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&index).ok();
}

#[test]
fn an_index_file_is_the_same_bytes_from_two_processes() {
    let (a, b) = (tmp("det-a"), tmp("det-b"));
    for path in [&a, &b] {
        let out = pegcli(&[
            "index",
            "--kind",
            "synthetic",
            "--size",
            "300",
            "--max-len",
            "2",
            "--beta",
            "0.3",
            "--out",
            path.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{}", stderr(&out));
    }
    let (x, y) = (std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
    assert!(x.len() > 1024);
    assert!(x == y, "two runs wrote different index files");
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
}

#[test]
fn an_index_of_another_graph_is_an_error_not_a_panic() {
    let index = tmp("mismatch");
    let out = pegcli(&[
        "index",
        "--kind",
        "synthetic",
        "--size",
        "400",
        "--max-len",
        "2",
        "--beta",
        "0.3",
        "--out",
        index.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let out = pegcli(&[
        "query",
        "--kind",
        "synthetic",
        "--size",
        "300",
        "--index",
        index.to_str().unwrap(),
        "--pattern",
        "(x:l0)-(y:l1)",
        "--alpha",
        "0.3",
    ]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.starts_with("error: index was built on another graph"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    // A file that is not an index at all.
    std::fs::write(&index, b"not an index").unwrap();
    let out = pegcli(&[
        "query",
        "--kind",
        "synthetic",
        "--size",
        "300",
        "--index",
        index.to_str().unwrap(),
        "--pattern",
        "(x:l0)-(y:l1)",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).starts_with("error: not a path index file"), "{}", stderr(&out));
    std::fs::remove_file(&index).ok();
}

#[test]
fn query_pattern_and_legacy_flags_agree() {
    let a = pegcli(&[
        "query",
        "--kind",
        "synthetic",
        "--size",
        "250",
        "--pattern",
        "(x:l0)-(y:l1)-(z:l2)",
        "--alpha",
        "0.4",
    ]);
    let b = pegcli(&[
        "query",
        "--kind",
        "synthetic",
        "--size",
        "250",
        "--labels",
        "l0,l1,l2",
        "--edges",
        "0-1,1-2",
        "--alpha",
        "0.4",
    ]);
    assert!(a.status.success() && b.status.success());
    let (ta, tb) = (stdout(&a), stdout(&b));
    let count = |t: &str| {
        t.lines()
            .find(|l| l.contains("match(es)"))
            .map(|l| l.split_whitespace().next().unwrap().to_string())
    };
    assert_eq!(count(&ta), count(&tb), "\n--- pattern:\n{ta}\n--- legacy:\n{tb}");
}

#[test]
fn query_explain_prints_factors() {
    let out = pegcli(&[
        "query",
        "--kind",
        "synthetic",
        "--size",
        "250",
        "--pattern",
        "(x:l0)-(y:l1)",
        "--alpha",
        "0.2",
        "--explain",
        "true",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("Prle"), "{text}");
    assert!(text.contains("identity:"), "{text}");
}

#[test]
fn topk_returns_k_results() {
    let out = pegcli(&[
        "topk",
        "--kind",
        "synthetic",
        "--size",
        "250",
        "--pattern",
        "(x:l0)-(y:l1)",
        "--k",
        "5",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    let listed = text.lines().filter(|l| l.trim_start().starts_with('[')).count();
    assert_eq!(listed, 5, "{text}");
}

#[test]
fn stats_reports_structure() {
    let out = pegcli(&["stats", "--kind", "synthetic", "--size", "300"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    for field in ["nodes:", "edges:", "components:", "merged entities:"] {
        assert!(text.contains(field), "stats missing `{field}`:\n{text}");
    }
}

#[test]
fn bad_pattern_is_reported_with_position() {
    let out = pegcli(&[
        "query",
        "--kind",
        "synthetic",
        "--size",
        "250",
        "--pattern",
        "(x:l0)-(",
        "--alpha",
        "0.5",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("at byte"), "{}", stderr(&out));
}

#[test]
fn unknown_label_is_reported() {
    let out = pegcli(&[
        "query",
        "--kind",
        "synthetic",
        "--size",
        "250",
        "--pattern",
        "(x:nosuchlabel)-(y:l0)",
        "--alpha",
        "0.5",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown label"), "{}", stderr(&out));
}
