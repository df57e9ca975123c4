//! Cross-crate persistence: a path index saved to its flat file and loaded
//! back must serve identical query results.

use datagen::{sampled_query, synthetic_refgraph, QuerySpec, SyntheticConfig};
use pathindex::file::{load_index, save_index};
use pathindex::PathIndexConfig;
use pegmatch::matcher::match_bruteforce;
use pegmatch::model::PegBuilder;
use pegmatch::offline::{OfflineIndex, OfflineOptions};
use pegmatch::online::{QueryOptions, QueryPipeline};

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("pegmatch-it-{name}-{}", std::process::id()));
    p
}

#[test]
fn index_roundtrip_preserves_query_results() {
    let refs = synthetic_refgraph(&SyntheticConfig::paper(250));
    let peg = PegBuilder::new().build(&refs).unwrap();
    let opts =
        OfflineOptions { index: PathIndexConfig { max_len: 2, beta: 0.2, ..Default::default() } };
    let idx = OfflineIndex::build(&peg, &opts).unwrap();

    // Save the path index to its file and reload.
    let path = tmp("index");
    save_index(&idx.paths, &peg.graph, &path).unwrap();
    let paths2 = load_index(&path, &peg.graph).unwrap();
    assert_eq!(paths2.n_entries(), idx.paths.n_entries());

    let idx2 = OfflineIndex { context: idx.context.clone(), paths: paths2, stats: idx.stats };
    let pipe1 = QueryPipeline::new(&peg, &idx);
    let pipe2 = QueryPipeline::new(&peg, &idx2);
    for seed in 0..4u64 {
        if let Some(q) = sampled_query(&peg.graph, QuerySpec::new(4, 4), seed) {
            let a = pipe1.run(&q, 0.3, &QueryOptions::default()).unwrap();
            let b = pipe2.run(&q, 0.3, &QueryOptions::default()).unwrap();
            assert_eq!(a.matches.len(), b.matches.len());
            for (x, y) in a.matches.iter().zip(&b.matches) {
                assert_eq!(x.nodes, y.nodes);
            }
            // Sanity: both equal brute force.
            let want = match_bruteforce(&peg, &q, 0.3);
            assert_eq!(a.matches.len(), want.len());
        }
    }
    std::fs::remove_file(&path).ok();
}
