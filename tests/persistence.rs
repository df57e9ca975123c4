//! Cross-crate persistence: entity graphs and path indexes written through
//! the kvstore B+-tree must round-trip and serve identical query results.

use datagen::{sampled_query, synthetic_refgraph, QuerySpec, SyntheticConfig};
use graphstore::persist::{load_entity_graph, save_entity_graph};
use kvstore::{BTreeStore, Kv, MemStore};
use pathindex::disk::{load_index, save_index, DiskPathIndex};
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
fn entity_graph_roundtrip_via_disk() {
    let refs = synthetic_refgraph(&SyntheticConfig::paper(300));
    let peg = PegBuilder::new().build(&refs).unwrap();
    let path = tmp("graph");
    {
        let mut store = BTreeStore::create(&path).unwrap();
        save_entity_graph(&peg.graph, &mut store).unwrap();
        store.flush().unwrap();
    }
    let store = BTreeStore::open(&path).unwrap();
    let g2 = load_entity_graph(&store).unwrap();
    assert_eq!(g2.n_nodes(), peg.graph.n_nodes());
    assert_eq!(g2.n_edges(), peg.graph.n_edges());
    for v in peg.graph.node_ids() {
        assert_eq!(g2.node(v).refs, peg.graph.node(v).refs);
        assert_eq!(g2.node(v).labels, peg.graph.node(v).labels);
    }
    drop(store);
    std::fs::remove_file(&path).ok();
}

#[test]
fn index_roundtrip_preserves_query_results() {
    let refs = synthetic_refgraph(&SyntheticConfig::paper(250));
    let peg = PegBuilder::new().build(&refs).unwrap();
    let opts =
        OfflineOptions { index: PathIndexConfig { max_len: 2, beta: 0.2, ..Default::default() } };
    let idx = OfflineIndex::build(&peg, &opts).unwrap();

    // Persist the path index through the disk B+-tree and reload.
    let path = tmp("index");
    {
        let mut store = BTreeStore::create(&path).unwrap();
        save_index(&idx.paths, &mut store).unwrap();
        store.flush().unwrap();
    }
    let store = BTreeStore::open(&path).unwrap();
    let paths2 = load_index(&store).unwrap();
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
    drop(store);
    std::fs::remove_file(&path).ok();
}

#[test]
fn disk_index_lookups_match_memory() {
    let refs = synthetic_refgraph(&SyntheticConfig::paper(200));
    let peg = PegBuilder::new().build(&refs).unwrap();
    let opts =
        OfflineOptions { index: PathIndexConfig { max_len: 2, beta: 0.3, ..Default::default() } };
    let idx = OfflineIndex::build(&peg, &opts).unwrap();
    let mut kv = MemStore::new();
    save_index(&idx.paths, &mut kv).unwrap();
    let disk = DiskPathIndex::open(&kv).unwrap();
    let n_labels = peg.graph.label_table().len() as u16;
    for a in 0..n_labels {
        for b in 0..n_labels {
            let labels = [graphstore::Label(a), graphstore::Label(b)];
            for alpha in [0.3, 0.6, 0.9] {
                let mut x = idx.paths.lookup(&labels, alpha).to_vec();
                let mut y = disk.lookup(&labels, alpha).unwrap().to_vec();
                x.sort_by(|p, q| p.nodes.cmp(&q.nodes));
                y.sort_by(|p, q| p.nodes.cmp(&q.nodes));
                assert_eq!(x, y, "labels ({a},{b}) alpha {alpha}");
            }
        }
    }
    assert!(kv.len() > 0);
}
