//! Persisting the path index in a [`kvstore`] backend.
//!
//! Key layout (big-endian composite keys so ranges align with tuple order —
//! the two-level ⟨label sequence, probability⟩ structure of the paper):
//!
//! ```text
//! "M"                               -> config + sequence count
//! "S" seq_id:u32                    -> label sequence (u16 count + ids)
//! "H" seq_id:u32                    -> histogram counts (u32 each)
//! "P" seq_id:u32 bucket:u8 n:u32    -> nodes (u8 count + u32 ids) | prle | prn
//! ```
//!
//! The entry keyspace for one sequence is contiguous and ordered by bucket,
//! so a lookup with threshold `α` is a single range scan from
//! `("P", seq, bucket(α))` — the disk analogue of the in-memory structure.

use crate::index::{
    push_matches, with_canonical, Fill, PathIndex, PathIndexConfig, PathMatches, StoredPath,
};
use graphstore::hash::FxHashMap;
use graphstore::Label;
use kvstore::{codec, Kv, KvError, Result};

fn meta_key() -> Vec<u8> {
    b"M".to_vec()
}

fn seq_key(id: u32) -> Vec<u8> {
    let mut k = b"S".to_vec();
    codec::push_u32(&mut k, id);
    k
}

fn hist_key(id: u32) -> Vec<u8> {
    let mut k = b"H".to_vec();
    codec::push_u32(&mut k, id);
    k
}

fn entry_key(seq: u32, bucket: u8, n: u32) -> Vec<u8> {
    let mut k = b"P".to_vec();
    codec::push_u32(&mut k, seq);
    k.push(bucket);
    codec::push_u32(&mut k, n);
    k
}

fn entry_prefix(seq: u32, bucket: u8) -> Vec<u8> {
    let mut k = b"P".to_vec();
    codec::push_u32(&mut k, seq);
    k.push(bucket);
    k
}

fn seq_upper_bound(seq: u32) -> Vec<u8> {
    let mut k = b"P".to_vec();
    codec::push_u32(&mut k, seq + 1);
    k
}

/// Writes `index` into `kv`.
pub fn save_index(index: &PathIndex, kv: &mut dyn Kv) -> Result<()> {
    let cfg = index.config();
    // Sequence ids are positions in the map's (stable while borrowed)
    // iteration order.
    let sequences = || index.map.iter().zip(0u32..);

    let mut meta = Vec::new();
    codec::push_u16(&mut meta, cfg.max_len as u16);
    codec::push_f64_prob(&mut meta, cfg.beta);
    codec::push_f64_prob(&mut meta, cfg.gamma);
    codec::push_u16(&mut meta, cfg.hist_grid.len() as u16);
    for &g in &cfg.hist_grid {
        codec::push_f64_prob(&mut meta, g);
    }
    codec::push_u32(&mut meta, index.map.len() as u32);
    kv.put(&meta_key(), &meta)?;

    for ((seq, se), id) in sequences() {
        let mut buf = Vec::new();
        codec::push_u16(&mut buf, seq.len() as u16);
        for &l in seq.iter() {
            codec::push_u16(&mut buf, l);
        }
        kv.put(&seq_key(id), &buf)?;
        let mut hbuf = Vec::new();
        for &c in &se.hist {
            codec::push_u32(&mut hbuf, c);
        }
        kv.put(&hist_key(id), &hbuf)?;
    }

    for ((seq, se), id) in sequences() {
        for (bucket, entries) in se.buckets.iter().enumerate() {
            for (n, e) in entries.iter(seq.len()).enumerate() {
                let mut buf = Vec::new();
                buf.push(e.nodes.len() as u8);
                for &node in e.nodes {
                    codec::push_u32(&mut buf, node);
                }
                codec::push_f64_prob(&mut buf, e.prle);
                codec::push_f64_prob(&mut buf, e.prn);
                kv.put(&entry_key(id, bucket as u8, n as u32), &buf)?;
            }
        }
    }
    Ok(())
}

/// Decodes one "P" value, its node ids into the caller's scratch buffer.
fn decode_entry<'a>(buf: &[u8], nodes: &'a mut Vec<u32>) -> StoredPath<'a> {
    let n = buf[0] as usize;
    nodes.clear();
    nodes.extend((0..n).map(|i| codec::read_u32(buf, 1 + 4 * i)));
    let pos = 1 + 4 * n;
    let prle = codec::read_f64_prob(buf, pos);
    let prn = codec::read_f64_prob(buf, pos + 8);
    StoredPath { nodes, prle, prn }
}

/// Decodes the meta record and the sequence table: the configuration, and
/// the label sequences in id order.
fn read_header(kv: &dyn Kv) -> Result<(PathIndexConfig, Vec<Vec<u16>>)> {
    let meta = kv.get(&meta_key())?.ok_or_else(|| KvError::Corrupt("missing index meta".into()))?;
    let max_len = codec::read_u16(&meta, 0) as usize;
    let beta = codec::read_f64_prob(&meta, 2);
    let gamma = codec::read_f64_prob(&meta, 10);
    let n_grid = codec::read_u16(&meta, 18) as usize;
    let mut pos = 20;
    let mut hist_grid = Vec::with_capacity(n_grid);
    for _ in 0..n_grid {
        hist_grid.push(codec::read_f64_prob(&meta, pos));
        pos += 8;
    }
    let n_seqs = codec::read_u32(&meta, pos);
    let config = PathIndexConfig { max_len, beta, gamma, threads: 0, hist_grid };
    let mut seqs: Vec<Vec<u16>> = Vec::with_capacity(n_seqs as usize);
    for id in 0..n_seqs {
        let raw =
            kv.get(&seq_key(id))?.ok_or_else(|| KvError::Corrupt(format!("missing seq {id}")))?;
        let n = codec::read_u16(&raw, 0) as usize;
        seqs.push((0..n).map(|i| codec::read_u16(&raw, 2 + 2 * i)).collect());
    }
    Ok((config, seqs))
}

/// Reads a full [`PathIndex`] back into memory.
pub fn load_index(kv: &dyn Kv) -> Result<PathIndex> {
    let (config, seqs) = read_header(kv)?;
    let mut fill = Fill::new(config);
    // Entries come back in (bucket, position) order, so every bucket is
    // refilled in its saved order and the histograms recount themselves.
    let mut nodes = Vec::new();
    for (id, seq) in seqs.iter().enumerate() {
        let lo = entry_prefix(id as u32, 0);
        let hi = seq_upper_bound(id as u32);
        kv.scan(Some(&lo), Some(&hi), &mut |_k, v| {
            let e = decode_entry(v, &mut nodes);
            fill.insert(seq, e.nodes.iter().copied(), e.prle, e.prn);
            true
        })?;
    }
    Ok(PathIndex::from_fill(fill))
}

/// A path index served directly from a key/value store: lookups are range
/// scans, nothing is cached in memory beyond the sequence table.
pub struct DiskPathIndex<'a, K: Kv> {
    kv: &'a K,
    config: PathIndexConfig,
    seq_ids: FxHashMap<Vec<u16>, u32>,
}

impl<'a, K: Kv> DiskPathIndex<'a, K> {
    /// Opens a previously saved index for direct disk lookups.
    pub fn open(kv: &'a K) -> Result<Self> {
        let (config, seqs) = read_header(kv)?;
        let seq_ids = seqs.into_iter().zip(0u32..).collect();
        Ok(Self { kv, config, seq_ids })
    }

    /// Directed matches for `labels` with total probability ≥ `min_prob`,
    /// via a single range scan per lookup.
    pub fn lookup(&self, labels: &[Label], min_prob: f64) -> Result<PathMatches> {
        let mut out = PathMatches::new(labels.len());
        let found = with_canonical(labels, |canonical, orient| {
            self.seq_ids.get(canonical).map(|&id| (id, orient))
        });
        let Some((id, orient)) = found else {
            return Ok(out);
        };
        // One bucket early — matches the in-memory lookup's tolerance for
        // probabilities a hair below the threshold (see `PathIndex::lookup`).
        let start_bucket = self.config.bucket_of(min_prob).saturating_sub(1) as u8;
        let lo = entry_prefix(id, start_bucket);
        let hi = seq_upper_bound(id);
        let mut nodes = Vec::new();
        self.kv.scan(Some(&lo), Some(&hi), &mut |_k, v| {
            let e = decode_entry(v, &mut nodes);
            if e.prob() + 1e-12 >= min_prob {
                push_matches(&mut out, orient, e);
            }
            true
        })?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_index;
    use crate::index::NoIdentity;
    use graphstore::dist::{EdgeProbability, LabelDist};
    use graphstore::{EntityGraphBuilder, LabelTable, RefId};
    use kvstore::MemStore;

    fn sample_index() -> PathIndex {
        let table = LabelTable::from_names(["x", "y", "z"]);
        let n = table.len();
        let mut b = EntityGraphBuilder::new(table);
        let vs: Vec<_> = (0..6)
            .map(|i| b.add_node(LabelDist::delta(Label((i % 3) as u16), n), vec![RefId(i as u32)]))
            .collect();
        for w in vs.windows(2) {
            b.add_edge(w[0], w[1], EdgeProbability::Independent(0.9));
        }
        let g = b.build();
        build_index(
            &g,
            &NoIdentity,
            &PathIndexConfig { max_len: 3, beta: 0.2, ..Default::default() },
        )
    }

    #[test]
    fn save_load_roundtrip() {
        let idx = sample_index();
        let mut kv = MemStore::new();
        save_index(&idx, &mut kv).unwrap();
        let back = load_index(&kv).unwrap();
        assert_eq!(back.n_entries(), idx.n_entries());
        assert_eq!(back.n_sequences(), idx.n_sequences());
        for labels in [
            vec![Label(0), Label(1)],
            vec![Label(0), Label(1), Label(2)],
            vec![Label(2), Label(1), Label(0), Label(2)],
        ] {
            let mut a = idx.lookup(&labels, 0.3).to_vec();
            let mut b = back.lookup(&labels, 0.3).to_vec();
            a.sort_by(|x, y| x.nodes.cmp(&y.nodes));
            b.sort_by(|x, y| x.nodes.cmp(&y.nodes));
            assert_eq!(a, b);
            assert!(
                (idx.estimate_count(&labels, 0.45) - back.estimate_count(&labels, 0.45)).abs()
                    < 1e-9
            );
        }
    }

    #[test]
    fn roundtrip_keeps_every_bucket_in_order() {
        let idx = sample_index();
        let mut kv = MemStore::new();
        save_index(&idx, &mut kv).unwrap();
        let back = load_index(&kv).unwrap();
        assert_eq!(back.approx_bytes(), idx.approx_bytes());
        for (seq, se) in &idx.map {
            let got = &back.map[seq];
            assert_eq!(got.hist, se.hist, "histogram of {seq:?}");
            for (b, (x, y)) in se.buckets.iter().zip(&got.buckets).enumerate() {
                let rows = |bucket: &crate::index::Bucket| {
                    let it = bucket.iter(seq.len());
                    it.map(|e| (e.nodes.to_vec(), e.prle.to_bits(), e.prn.to_bits()))
                        .collect::<Vec<_>>()
                };
                assert_eq!(rows(x), rows(y), "bucket {b} of {seq:?}");
            }
        }
    }

    #[test]
    fn a_file_written_out_of_order_loads_sorted() {
        let idx = sample_index();
        let mut kv = MemStore::new();
        save_index(&idx, &mut kv).unwrap();
        // Rewrite every saved bucket with its entries in reverse.
        let mut reversed = 0;
        for ((_, se), id) in idx.map.iter().zip(0u32..) {
            for (bucket, entries) in se.buckets.iter().enumerate() {
                let n = entries.len() as u32;
                let mut vals = Vec::new();
                for i in 0..n {
                    vals.push(kv.get(&entry_key(id, bucket as u8, i)).unwrap().unwrap());
                }
                for (i, v) in vals.into_iter().rev().enumerate() {
                    kv.put(&entry_key(id, bucket as u8, i as u32), &v).unwrap();
                }
                reversed += usize::from(n > 1);
            }
        }
        assert!(reversed > 0, "some bucket holds two paths");
        let back = load_index(&kv).unwrap();
        assert_eq!(back.n_entries(), idx.n_entries());
        for (seq, se) in &idx.map {
            for (x, y) in se.buckets.iter().zip(&back.map[seq].buckets) {
                let rows = |bucket: &crate::index::Bucket| {
                    let it = bucket.iter(seq.len());
                    it.map(|e| (e.nodes.to_vec(), e.prle.to_bits(), e.prn.to_bits()))
                        .collect::<Vec<_>>()
                };
                assert_eq!(rows(x), rows(y), "a bucket of {seq:?} loaded unsorted");
                assert!(y.chunks.iter().all(|c| (1..=crate::index::CHUNK).contains(&c.len())));
            }
        }
    }

    #[test]
    fn disk_lookup_matches_memory() {
        let idx = sample_index();
        let mut kv = MemStore::new();
        save_index(&idx, &mut kv).unwrap();
        let disk = DiskPathIndex::open(&kv).unwrap();
        for labels in [
            vec![Label(0)],
            vec![Label(1), Label(2)],
            vec![Label(0), Label(1), Label(2), Label(0)],
            vec![], // matches nothing, on either side
        ] {
            for alpha in [0.2, 0.5, 0.9] {
                let mut a = idx.lookup(&labels, alpha).to_vec();
                let mut b = disk.lookup(&labels, alpha).unwrap().to_vec();
                a.sort_by(|x, y| x.nodes.cmp(&y.nodes));
                b.sort_by(|x, y| x.nodes.cmp(&y.nodes));
                assert_eq!(a, b, "labels {labels:?} alpha {alpha}");
            }
        }
    }

    #[test]
    fn roundtrip_through_disk_btree() {
        let idx = sample_index();
        let mut path = std::env::temp_dir();
        path.push(format!("pathindex-disk-{}", std::process::id()));
        {
            let mut store = kvstore::BTreeStore::create(&path).unwrap();
            save_index(&idx, &mut store).unwrap();
            store.flush().unwrap();
            assert!(store.file_len() > 4096);
        }
        {
            let store = kvstore::BTreeStore::open(&path).unwrap();
            let back = load_index(&store).unwrap();
            assert_eq!(back.n_entries(), idx.n_entries());
        }
        std::fs::remove_file(&path).ok();
    }
}
