//! Persisting entity graphs in a [`kvstore`] file.
//!
//! Layout (all keys are short prefixed byte strings; all integers big-endian
//! via [`kvstore::codec`]):
//!
//! ```text
//! "M"            -> n_nodes:u32 | n_edges:u32 | n_labels:u16
//! "L" id:u16     -> label name (utf-8)
//! "N" id:u32     -> sparse label dist | refs
//! "E" id:u32     -> a:u32 | b:u32 | edge probability
//! ```
//!
//! Edge probabilities are tagged: `0` independent (`f64` bits), `1`
//! conditional (sparse non-zero CPT entries).

use crate::dist::{CondTable, EdgeProbability, LabelDist, LabelRow};
use crate::entity::{EntityGraph, EntityGraphBuilder, EntityId};
use crate::labels::{Label, LabelTable};
use crate::refgraph::RefId;
use kvstore::codec;
use kvstore::{Kv, KvError, Result};

const TAG_INDEP: u8 = 0;
const TAG_COND: u8 = 1;

fn meta_key() -> Vec<u8> {
    b"M".to_vec()
}

fn label_key(i: u16) -> Vec<u8> {
    let mut k = b"L".to_vec();
    codec::push_u16(&mut k, i);
    k
}

fn node_key(i: u32) -> Vec<u8> {
    let mut k = b"N".to_vec();
    codec::push_u32(&mut k, i);
    k
}

fn edge_key(i: u32) -> Vec<u8> {
    let mut k = b"E".to_vec();
    codec::push_u32(&mut k, i);
    k
}

fn encode_dist(d: LabelRow<'_>, out: &mut Vec<u8>) {
    let entries: Vec<(u16, f64)> = d
        .as_slice()
        .iter()
        .enumerate()
        .filter(|(_, &p)| p > 0.0)
        .map(|(i, &p)| (i as u16, p))
        .collect();
    codec::push_u16(out, entries.len() as u16);
    for (l, p) in entries {
        codec::push_u16(out, l);
        codec::push_f64_prob(out, p);
    }
}

fn decode_dist(buf: &[u8], off: usize, n_labels: usize) -> (LabelDist, usize) {
    let count = codec::read_u16(buf, off) as usize;
    let mut pos = off + 2;
    let mut pairs = Vec::with_capacity(count);
    for _ in 0..count {
        let l = Label(codec::read_u16(buf, pos));
        let p = codec::read_f64_prob(buf, pos + 2);
        pairs.push((l, p));
        pos += 10;
    }
    (LabelDist::from_pairs(&pairs, n_labels), pos)
}

fn encode_edge_prob(p: &EdgeProbability, out: &mut Vec<u8>) {
    match p {
        EdgeProbability::Independent(q) => {
            out.push(TAG_INDEP);
            codec::push_f64_prob(out, *q);
        }
        EdgeProbability::Conditional(t) => {
            out.push(TAG_COND);
            codec::push_u16(out, t.n_labels() as u16);
            let entries: Vec<(u16, u16, f64)> = (0..t.n_labels())
                .flat_map(|a| (0..t.n_labels()).map(move |b| (a, b)))
                .filter_map(|(a, b)| {
                    let p = t.prob(Label(a as u16), Label(b as u16));
                    (p > 0.0).then_some((a as u16, b as u16, p))
                })
                .collect();
            codec::push_u16(out, entries.len() as u16);
            for (a, b, p) in entries {
                codec::push_u16(out, a);
                codec::push_u16(out, b);
                codec::push_f64_prob(out, p);
            }
        }
    }
}

fn decode_edge_prob(buf: &[u8], off: usize) -> Result<EdgeProbability> {
    match buf[off] {
        TAG_INDEP => Ok(EdgeProbability::Independent(codec::read_f64_prob(buf, off + 1))),
        TAG_COND => {
            let n = codec::read_u16(buf, off + 1) as usize;
            let count = codec::read_u16(buf, off + 3) as usize;
            let mut t = CondTable::zeros(n);
            let mut pos = off + 5;
            for _ in 0..count {
                let a = Label(codec::read_u16(buf, pos));
                let b = Label(codec::read_u16(buf, pos + 2));
                let p = codec::read_f64_prob(buf, pos + 4);
                t.set(a, b, p);
                pos += 12;
            }
            Ok(EdgeProbability::Conditional(t))
        }
        t => Err(KvError::Corrupt(format!("unknown edge probability tag {t}"))),
    }
}

/// Writes `graph` into `kv` (overwriting any previous graph).
pub fn save_entity_graph(graph: &EntityGraph, kv: &mut dyn Kv) -> Result<()> {
    let mut meta = Vec::new();
    codec::push_u32(&mut meta, graph.n_nodes() as u32);
    codec::push_u32(&mut meta, graph.n_edges() as u32);
    codec::push_u16(&mut meta, graph.label_table().len() as u16);
    kv.put(&meta_key(), &meta)?;

    for (i, name) in graph.label_table().names().iter().enumerate() {
        kv.put(&label_key(i as u16), name.as_bytes())?;
    }
    for v in graph.node_ids() {
        let node = graph.node(v);
        let mut buf = Vec::new();
        encode_dist(node.labels, &mut buf);
        codec::push_u16(&mut buf, node.refs.len() as u16);
        for r in node.refs {
            codec::push_u32(&mut buf, r.0);
        }
        kv.put(&node_key(v.0), &buf)?;
    }
    for (i, e) in graph.edges().iter().enumerate() {
        let mut buf = Vec::new();
        codec::push_u32(&mut buf, e.a.0);
        codec::push_u32(&mut buf, e.b.0);
        encode_edge_prob(&e.prob, &mut buf);
        kv.put(&edge_key(i as u32), &buf)?;
    }
    Ok(())
}

/// Reads an entity graph previously written by [`save_entity_graph`].
pub fn load_entity_graph(kv: &dyn Kv) -> Result<EntityGraph> {
    let meta =
        kv.get(&meta_key())?.ok_or_else(|| KvError::Corrupt("missing graph meta record".into()))?;
    let n_nodes = codec::read_u32(&meta, 0);
    let n_edges = codec::read_u32(&meta, 4);
    let n_labels = codec::read_u16(&meta, 8);

    let mut names = Vec::with_capacity(n_labels as usize);
    for i in 0..n_labels {
        let raw =
            kv.get(&label_key(i))?.ok_or_else(|| KvError::Corrupt(format!("missing label {i}")))?;
        names.push(String::from_utf8(raw).map_err(|_| KvError::Corrupt("label not utf-8".into()))?);
    }
    let table = LabelTable::from_names(&names);
    let n_alpha = table.len();
    let mut builder = EntityGraphBuilder::new(table);

    for i in 0..n_nodes {
        let raw =
            kv.get(&node_key(i))?.ok_or_else(|| KvError::Corrupt(format!("missing node {i}")))?;
        let (dist, mut pos) = decode_dist(&raw, 0, n_alpha);
        let n_refs = codec::read_u16(&raw, pos) as usize;
        pos += 2;
        let mut refs = Vec::with_capacity(n_refs);
        for _ in 0..n_refs {
            refs.push(RefId(codec::read_u32(&raw, pos)));
            pos += 4;
        }
        builder.add_node(dist, refs);
    }
    for i in 0..n_edges {
        let raw =
            kv.get(&edge_key(i))?.ok_or_else(|| KvError::Corrupt(format!("missing edge {i}")))?;
        let a = EntityId(codec::read_u32(&raw, 0));
        let b = EntityId(codec::read_u32(&raw, 4));
        let prob = decode_edge_prob(&raw, 8)?;
        builder.add_edge(a, b, prob);
    }
    Ok(builder.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvstore::MemStore;

    fn sample_graph() -> EntityGraph {
        let table = LabelTable::from_names(["a", "r", "i"]);
        let n = table.len();
        let mut b = EntityGraphBuilder::new(table);
        let v0 = b.add_node(
            LabelDist::from_pairs(&[(Label(1), 0.25), (Label(2), 0.75)], n),
            vec![RefId(0)],
        );
        let v1 = b.add_node(LabelDist::delta(Label(0), n), vec![RefId(1)]);
        let v2 = b.add_node(
            LabelDist::from_pairs(&[(Label(1), 0.5), (Label(2), 0.5)], n),
            vec![RefId(2), RefId(3)],
        );
        b.add_edge(v0, v1, EdgeProbability::Independent(0.9));
        let cpt = CondTable::from_fn(n, |a, b| if a == b { 0.8 } else { 0.3 });
        b.add_edge(v1, v2, EdgeProbability::Conditional(cpt));
        b.build()
    }

    #[test]
    fn roundtrip_through_memstore() {
        let g = sample_graph();
        let mut kv = MemStore::new();
        save_entity_graph(&g, &mut kv).unwrap();
        let g2 = load_entity_graph(&kv).unwrap();
        assert_eq!(g2.n_nodes(), g.n_nodes());
        assert_eq!(g2.n_edges(), g.n_edges());
        assert_eq!(g2.label_table().names(), g.label_table().names());
        for v in g.node_ids() {
            assert_eq!(g2.node(v).labels, g.node(v).labels);
            assert_eq!(g2.node(v).refs, g.node(v).refs);
        }
        assert_eq!(g2.edge_prob(EntityId(1), EntityId(2), Label(1), Label(1)), 0.8);
        assert_eq!(g2.edge_prob(EntityId(1), EntityId(2), Label(1), Label(2)), 0.3);
        assert_eq!(g2.edge_prob_max(EntityId(0), EntityId(1)), 0.9);
    }

    #[test]
    fn roundtrip_through_disk_btree() {
        let mut path = std::env::temp_dir();
        path.push(format!("graphstore-persist-{}", std::process::id()));
        let g = sample_graph();
        {
            let mut store = kvstore::BTreeStore::create(&path).unwrap();
            save_entity_graph(&g, &mut store).unwrap();
            store.flush().unwrap();
        }
        {
            let store = kvstore::BTreeStore::open(&path).unwrap();
            let g2 = load_entity_graph(&store).unwrap();
            assert_eq!(g2.n_nodes(), 3);
            assert_eq!(g2.n_edges(), 2);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_meta_fails() {
        let kv = MemStore::new();
        assert!(load_entity_graph(&kv).is_err());
    }
}
