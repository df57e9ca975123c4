//! The path index as one flat file, written in one pass and read in one.
//!
//! Layout, little-endian throughout:
//!
//! ```text
//! header     magic "PEGPATHS", format version u32,
//!            config: max_len u32, beta f64, gamma f64,
//!                    histogram grid count u32 + grid points f64,
//!            graph stamp: node count u64, edge count u64,
//!                         FNV-1a of the edge endpoint list u64
//! sequences  count u32, then per canonical label sequence, ascending:
//!            length u32, labels u16 × length, entry count u32 × buckets
//! body       per sequence, per bucket: its entries in stored order as
//!            three columns — nodes u32 × (count · length), Prle f64 ×
//!            count, Prn f64 × count
//! trailer    FNV-1a u64 of every byte before it
//! ```
//!
//! The sequence table is sorted, and a bucket's order is a pure function
//! of (graph, config) at any thread count, so the same index always gives
//! the same bytes. Histograms are not stored: the load refills through
//! the same `Fill` a build uses, and they recount themselves.
//!
//! A load checks the magic, the version and the checksum before it
//! decodes anything, then the stamp against the graph it is given, and
//! every node id against that graph's node count. Every count is checked
//! against the bytes left before it is used, so a damaged or mismatched
//! file is an [`IndexFileError`], never a panic or an allocation sized by
//! a count the file cannot back.

use crate::index::{Fill, PathIndex, PathIndexConfig};
use graphstore::hash::{fnv1a, FNV1A_BASIS};
use graphstore::EntityGraph;
use std::fmt;
use std::path::Path;

/// The first eight bytes of every index file.
const MAGIC: [u8; 8] = *b"PEGPATHS";

/// The layout version this build writes and reads.
pub const FORMAT_VERSION: u32 = 1;

/// Bytes of the checksum trailer.
const TRAILER: usize = 8;

/// Most buckets a file holds (γ ≥ 1/255): the B+-tree store this file
/// replaced numbered buckets in a `u8`, and no configuration in use comes
/// near it. It bounds what a load allocates per sequence before it reads
/// a row: one bucket per 4 bytes of the sequence's table row, ×
/// `size_of::<Bucket>()`, at most a few KiB.
const MAX_BUCKETS: usize = 256;

/// What an index was built on: a file loads only against a graph with the
/// same stamp.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GraphStamp {
    /// Entity nodes.
    pub nodes: u64,
    /// Entity edges.
    pub edges: u64,
    /// FNV-1a of every edge's endpoints, `a` then `b`, in edge order.
    pub edges_fnv: u64,
}

impl GraphStamp {
    /// The stamp of `graph`.
    pub fn of(graph: &EntityGraph) -> Self {
        let edges_fnv = graph
            .edges()
            .iter()
            .fold(FNV1A_BASIS, |h, e| fnv1a(fnv1a(h, &e.a.0.to_le_bytes()), &e.b.0.to_le_bytes()));
        Self { nodes: graph.n_nodes() as u64, edges: graph.n_edges() as u64, edges_fnv }
    }
}

impl fmt::Display for GraphStamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} nodes, {} edges, edge hash {:016x}", self.nodes, self.edges, self.edges_fnv)
    }
}

/// Why an index file could not be written or loaded.
#[derive(Debug)]
pub enum IndexFileError {
    /// Reading or writing the file failed.
    Io(std::io::Error),
    /// The file does not start with the index magic.
    NotAnIndex,
    /// The file has another layout version than [`FORMAT_VERSION`].
    Version(u32),
    /// The file ends before a field it declares.
    Truncated {
        /// Offset of the field.
        at: usize,
        /// Bytes the field needs.
        need: u64,
    },
    /// The trailer does not match the bytes before it.
    Checksum {
        /// The trailer's value.
        stored: u64,
        /// FNV-1a of the bytes before the trailer.
        computed: u64,
    },
    /// The bytes pass the checksum but do not form a valid index.
    Corrupt(String),
    /// The bucket resolution γ needs more buckets than a file holds, or
    /// is not in (0, 1].
    Resolution(f64),
    /// The index was built on another graph.
    GraphMismatch {
        /// The stamp in the file.
        file: GraphStamp,
        /// The stamp of the graph it was loaded against.
        graph: GraphStamp,
    },
    /// A stored path names a node the graph does not have.
    NodeOutOfRange {
        /// The node id.
        node: u32,
        /// The graph's node count.
        nodes: u64,
    },
}

impl fmt::Display for IndexFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexFileError::Io(e) => write!(f, "index file: {e}"),
            IndexFileError::NotAnIndex => write!(f, "not a path index file (bad magic)"),
            IndexFileError::Version(v) => write!(
                f,
                "index file has format version {v}; this build reads version {FORMAT_VERSION}"
            ),
            IndexFileError::Truncated { at, need } => {
                write!(f, "index file truncated: {need} byte(s) needed at offset {at}")
            }
            IndexFileError::Checksum { stored, computed } => write!(
                f,
                "index file damaged: checksum {stored:016x} stored, {computed:016x} computed"
            ),
            IndexFileError::Corrupt(msg) => write!(f, "index file corrupt: {msg}"),
            IndexFileError::Resolution(gamma) => write!(
                f,
                "bucket resolution {gamma} out of range: an index file holds \
                 1/{} <= gamma <= 1",
                MAX_BUCKETS - 1
            ),
            IndexFileError::GraphMismatch { file, graph } => write!(
                f,
                "index was built on another graph (file: {file}; graph: {graph}); rebuild it"
            ),
            IndexFileError::NodeOutOfRange { node, nodes } => {
                write!(f, "index names node {node}, but the graph has {nodes} node(s)")
            }
        }
    }
}

impl std::error::Error for IndexFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IndexFileError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for IndexFileError {
    fn from(e: std::io::Error) -> Self {
        IndexFileError::Io(e)
    }
}

/// Writes `index`, built on `graph`, to `path` in one pass and returns
/// the file's length in bytes.
pub fn save_index(
    index: &PathIndex,
    graph: &EntityGraph,
    path: &Path,
) -> Result<u64, IndexFileError> {
    let bytes = encode(index, graph)?;
    std::fs::write(path, &bytes)?;
    Ok(bytes.len() as u64)
}

/// Reads the index at `path` in one pass, for `graph`: the graph it was
/// built on, as its stamp shows.
pub fn load_index(path: &Path, graph: &EntityGraph) -> Result<PathIndex, IndexFileError> {
    decode(&std::fs::read(path)?, graph)
}

/// Refuses a bucket resolution that needs more than [`MAX_BUCKETS`].
fn check_gamma(gamma: f64) -> Result<(), IndexFileError> {
    if gamma > 0.0 && gamma <= 1.0 && (1.0 / gamma).ceil() + 1.0 <= MAX_BUCKETS as f64 {
        Ok(())
    } else {
        Err(IndexFileError::Resolution(gamma))
    }
}

/// The file's bytes, trailer included.
fn encode(index: &PathIndex, graph: &EntityGraph) -> Result<Vec<u8>, IndexFileError> {
    let cfg = index.config();
    check_gamma(cfg.gamma)?;
    let mut buf = MAGIC.to_vec();
    buf.extend(FORMAT_VERSION.to_le_bytes());
    buf.extend((cfg.max_len as u32).to_le_bytes());
    buf.extend(cfg.beta.to_le_bytes());
    buf.extend(cfg.gamma.to_le_bytes());
    buf.extend((cfg.hist_grid.len() as u32).to_le_bytes());
    buf.extend(cfg.hist_grid.iter().flat_map(|g| g.to_le_bytes()));
    let stamp = GraphStamp::of(graph);
    buf.extend([stamp.nodes, stamp.edges, stamp.edges_fnv].iter().flat_map(|v| v.to_le_bytes()));

    let mut seqs: Vec<_> = index.map.iter().collect();
    seqs.sort_unstable_by(|a, b| a.0.cmp(b.0));
    buf.extend((seqs.len() as u32).to_le_bytes());
    for (seq, se) in &seqs {
        buf.extend((seq.len() as u32).to_le_bytes());
        buf.extend(seq.iter().flat_map(|l| l.to_le_bytes()));
        for b in &se.buckets {
            buf.extend((b.chunks.iter().map(|c| c.len()).sum::<usize>() as u32).to_le_bytes());
        }
    }
    for (_, se) in &seqs {
        for b in &se.buckets {
            buf.extend(b.chunks.iter().flat_map(|c| &c.nodes).flat_map(|v| v.to_le_bytes()));
            buf.extend(b.chunks.iter().flat_map(|c| &c.prle).flat_map(|p| p.to_le_bytes()));
            buf.extend(b.chunks.iter().flat_map(|c| &c.prn).flat_map(|p| p.to_le_bytes()));
        }
    }
    buf.extend(fnv1a(FNV1A_BASIS, &buf).to_le_bytes());
    Ok(buf)
}

/// A cursor over the file's bytes; every read is bounds-checked.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], IndexFileError> {
        let truncated = IndexFileError::Truncated { at: self.pos, need: n as u64 };
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len()).ok_or(truncated)?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// `count` records of `width` bytes, as one slice: the count is
    /// checked against the bytes left before anything else reads it.
    fn records(&mut self, count: usize, width: usize) -> Result<&'a [u8], IndexFileError> {
        let need = (count as u64).saturating_mul(width as u64);
        let truncated = || IndexFileError::Truncated { at: self.pos, need };
        let n = count.checked_mul(width).ok_or_else(truncated)?;
        self.take(n)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], IndexFileError> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    fn u32(&mut self) -> Result<u32, IndexFileError> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, IndexFileError> {
        self.array().map(u64::from_le_bytes)
    }

    fn f64(&mut self) -> Result<f64, IndexFileError> {
        self.array().map(f64::from_le_bytes)
    }

    /// One sequence-table row: the labels into `seq`, and the bucket
    /// counts as raw bytes.
    fn seq_row(&mut self, seq: &mut Vec<u16>, buckets: usize) -> Result<&'a [u8], IndexFileError> {
        let len = self.u32()? as usize;
        let labels = self.records(len, 2)?;
        seq.clear();
        seq.extend(labels.chunks_exact(2).map(|b| u16::from_le_bytes([b[0], b[1]])));
        self.records(buckets, 4)
    }
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b.try_into().expect("four bytes"))
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("eight bytes"))
}

fn le_f64(b: &[u8]) -> f64 {
    f64::from_le_bytes(b.try_into().expect("eight bytes"))
}

/// Decodes a whole file for `graph`.
fn decode(bytes: &[u8], graph: &EntityGraph) -> Result<PathIndex, IndexFileError> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(MAGIC.len())? != MAGIC {
        return Err(IndexFileError::NotAnIndex);
    }
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(IndexFileError::Version(version));
    }
    let body_end = bytes.len().checked_sub(TRAILER).filter(|&e| e >= r.pos);
    let body_end = body_end.ok_or(IndexFileError::Truncated { at: r.pos, need: TRAILER as u64 })?;
    let stored = le_u64(&bytes[body_end..]);
    let computed = fnv1a(FNV1A_BASIS, &bytes[..body_end]);
    if stored != computed {
        return Err(IndexFileError::Checksum { stored, computed });
    }
    r.bytes = &bytes[..body_end];

    let max_len = r.u32()? as usize;
    let beta = r.f64()?;
    let gamma = r.f64()?;
    check_gamma(gamma)?;
    let n_grid = r.u32()? as usize;
    let hist_grid = r.records(n_grid, 8)?.chunks_exact(8).map(le_f64).collect();
    let file = GraphStamp { nodes: r.u64()?, edges: r.u64()?, edges_fnv: r.u64()? };
    let stamp = GraphStamp::of(graph);
    if file != stamp {
        return Err(IndexFileError::GraphMismatch { file, graph: stamp });
    }
    let config = PathIndexConfig { max_len, beta, gamma, threads: 0, hist_grid };
    let n_buckets = config.n_buckets();
    let n_labels = graph.label_table().len();

    // Walk the sequence table once to check it and find where the body
    // starts; the second walk, beside the body, allocates nothing.
    let n_seqs = r.u32()? as usize;
    let table = r.pos;
    let (mut seq, mut prev) = (Vec::new(), Vec::new());
    for i in 0..n_seqs {
        r.seq_row(&mut seq, n_buckets)?;
        if seq.is_empty() || seq.len() > max_len.saturating_add(1) {
            let msg = format!(
                "sequence {i} has {} labels; the index holds 1..={}",
                seq.len(),
                max_len + 1
            );
            return Err(IndexFileError::Corrupt(msg));
        }
        if let Some(&l) = seq.iter().find(|&&l| l as usize >= n_labels) {
            let msg = format!("sequence {i} names label {l}; the graph has {n_labels}");
            return Err(IndexFileError::Corrupt(msg));
        }
        if i > 0 && seq <= prev {
            return Err(IndexFileError::Corrupt(format!("sequence {i} is out of order")));
        }
        std::mem::swap(&mut seq, &mut prev);
    }

    let mut body = Reader { bytes: r.bytes, pos: r.pos };
    r.pos = table;
    let mut fill = Fill::new(config);
    for _ in 0..n_seqs {
        let counts = r.seq_row(&mut seq, n_buckets)?;
        let stride = seq.len();
        for count in counts.chunks_exact(4).map(|c| le_u32(c) as usize) {
            let nodes = body.records(count, 4 * stride)?;
            let prle = body.records(count, 8)?;
            let prn = body.records(count, 8)?;
            if let Some(node) = nodes.chunks_exact(4).map(le_u32).find(|&v| v as u64 >= stamp.nodes)
            {
                return Err(IndexFileError::NodeOutOfRange { node, nodes: stamp.nodes });
            }
            // `stride` ≥ 1: the first walk refused empty sequences.
            let rows =
                nodes.chunks_exact(4 * stride).zip(prle.chunks_exact(8)).zip(prn.chunks_exact(8));
            for ((row, a), b) in rows {
                fill.insert(&seq, row.chunks_exact(4).map(le_u32), le_f64(a), le_f64(b));
            }
        }
    }
    if body.pos != body_end {
        let msg = format!("{} byte(s) after the last bucket", body_end - body.pos);
        return Err(IndexFileError::Corrupt(msg));
    }
    Ok(PathIndex::from_fill(fill))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_index;
    use crate::index::{Bucket, NoIdentity};
    use graphstore::dist::{EdgeProbability, LabelDist};
    use graphstore::{EntityGraphBuilder, Label, LabelTable, RefId};

    /// A chain of `n` nodes over labels x, y, z, with chords from `n` = 8.
    fn graph(n: usize) -> EntityGraph {
        let table = LabelTable::from_names(["x", "y", "z"]);
        let k = table.len();
        let mut b = EntityGraphBuilder::new(table);
        let vs: Vec<_> = (0..n)
            .map(|i| b.add_node(LabelDist::delta(Label((i % 3) as u16), k), vec![RefId(i as u32)]))
            .collect();
        for w in vs.windows(2) {
            b.add_edge(w[0], w[1], EdgeProbability::Independent(0.9));
        }
        for i in (0..n.saturating_sub(7)).step_by(3) {
            b.add_edge(vs[i], vs[i + 7], EdgeProbability::Independent(0.6 + 0.01 * i as f64));
        }
        b.build()
    }

    fn index(g: &EntityGraph, threads: usize) -> PathIndex {
        let config = PathIndexConfig { max_len: 3, beta: 0.2, threads, ..Default::default() };
        build_index(g, &NoIdentity, &config)
    }

    fn bytes(idx: &PathIndex, g: &EntityGraph) -> Vec<u8> {
        encode(idx, g).unwrap()
    }

    /// Recomputes the trailer, so a test edit reaches the decoder.
    fn reseal(b: &mut [u8]) {
        let end = b.len() - TRAILER;
        let h = fnv1a(FNV1A_BASIS, &b[..end]);
        b[end..].copy_from_slice(&h.to_le_bytes());
    }

    type Rows = Vec<(Vec<u32>, u64, u64)>;

    /// Every sequence, ascending, with its histogram and each bucket's
    /// rows in stored order (probabilities as bits).
    fn contents(idx: &PathIndex) -> Vec<(Vec<u16>, Vec<u32>, Vec<Rows>)> {
        let rows = |b: &Bucket, stride| {
            b.iter(stride).map(|e| (e.nodes.to_vec(), e.prle.to_bits(), e.prn.to_bits())).collect()
        };
        let mut out: Vec<_> = idx
            .map
            .iter()
            .map(|(seq, se)| {
                let buckets = se.buckets.iter().map(|b| rows(b, seq.len())).collect();
                (seq.clone(), se.hist.clone(), buckets)
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    #[test]
    fn save_load_roundtrip() {
        let g = graph(6);
        let idx = index(&g, 1);
        let path = std::env::temp_dir().join(format!("pathindex-file-{}", std::process::id()));
        let len = save_index(&idx, &g, &path).unwrap();
        assert_eq!(len, std::fs::metadata(&path).unwrap().len());
        let back = load_index(&path, &g).unwrap();
        std::fs::remove_file(&path).ok();
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
        let g = graph(40);
        let idx = index(&g, 1);
        let back = decode(&bytes(&idx, &g), &g).unwrap();
        assert_eq!(contents(&back), contents(&idx));
        assert_eq!(back.n_entries(), idx.n_entries());
        assert_eq!(back.approx_bytes(), idx.approx_bytes());
        let (a, b) = (back.config(), idx.config());
        assert_eq!(
            (a.max_len, a.beta, a.gamma, &a.hist_grid),
            (b.max_len, b.beta, b.gamma, &b.hist_grid)
        );
    }

    #[test]
    fn the_same_index_gives_the_same_bytes_at_any_thread_count() {
        let g = graph(90);
        let one = bytes(&index(&g, 1), &g);
        assert_eq!(bytes(&index(&g, 4), &g), one);
        assert_eq!(bytes(&index(&g, 3), &g), one);
    }

    /// Turns the rows of `block`, each `width` bytes, end for end.
    fn reverse_rows(block: &mut [u8], width: usize) {
        let rows: Vec<u8> = block.chunks_exact(width).rev().flatten().copied().collect();
        block.copy_from_slice(&rows);
    }

    #[test]
    fn a_file_written_out_of_order_loads_sorted() {
        let g = graph(40);
        let idx = index(&g, 1);
        let mut b = bytes(&idx, &g);
        let mut seqs: Vec<_> = idx.map.iter().collect();
        seqs.sort_unstable_by(|x, y| x.0.cmp(y.0));
        let count = |b: &Bucket| b.chunks.iter().map(|c| c.len()).sum::<usize>();
        let row_bytes = |stride: usize| 4 * stride + 8 + 8;
        let body_len: usize = seqs
            .iter()
            .flat_map(|(seq, se)| se.buckets.iter().map(|b| count(b) * row_bytes(seq.len())))
            .sum();
        // Rewrite every bucket with its rows in reverse, column by column.
        let mut at = b.len() - TRAILER - body_len;
        let (mut reversed, mut spans_chunks) = (0, 0);
        for (seq, se) in &seqs {
            for bucket in &se.buckets {
                let n = count(bucket);
                for width in [4 * seq.len(), 8, 8] {
                    reverse_rows(&mut b[at..at + n * width], width);
                    at += n * width;
                }
                reversed += usize::from(n > 1);
                spans_chunks += usize::from(bucket.chunks.len() > 1);
            }
        }
        assert_eq!(at, b.len() - TRAILER);
        assert!(reversed > 0 && spans_chunks > 0, "some bucket holds more than one chunk");
        reseal(&mut b);
        assert_ne!(b, bytes(&idx, &g), "the rows were reversed");
        let back = decode(&b, &g).unwrap();
        assert_eq!(contents(&back), contents(&idx));
        for se in back.map.values() {
            for bucket in &se.buckets {
                assert!(bucket.chunks.iter().all(|c| (1..=crate::index::CHUNK).contains(&c.len())));
            }
        }
    }

    fn assert_rejected(b: &[u8], g: &EntityGraph, what: &str) -> IndexFileError {
        match decode(b, g) {
            Ok(_) => panic!("{what}: a damaged file loaded"),
            Err(e) => e,
        }
    }

    /// Offsets of the header's fields and the sequence table's rows.
    fn field_boundaries(b: &[u8], grid: usize) -> Vec<usize> {
        let mut at = vec![0, 8, 12, 16, 24, 32, 36];
        at.extend((1..=grid).map(|i| 36 + 8 * i));
        let stamp = 36 + 8 * grid;
        at.extend([stamp + 8, stamp + 16, stamp + 24, stamp + 28]);
        let n_seqs = le_u32(&b[stamp + 24..stamp + 28]) as usize;
        let counts = 4 * PathIndexConfig::default().n_buckets();
        let mut pos = stamp + 28;
        for _ in 0..n_seqs {
            let len = le_u32(&b[pos..pos + 4]) as usize;
            pos += 4 + 2 * len + counts;
            at.extend([pos - counts, pos]);
        }
        at
    }

    #[test]
    fn truncation_is_an_error_at_every_field_and_in_the_body() {
        let g = graph(30);
        let b = bytes(&index(&g, 1), &g);
        let mut cuts = field_boundaries(&b, crate::DEFAULT_HIST_GRID.len());
        let table_end = *cuts.last().unwrap();
        cuts.extend((table_end..b.len()).step_by(97));
        cuts.extend([b.len() - TRAILER, b.len() - 1]);
        for cut in cuts {
            let e = assert_rejected(&b[..cut], &g, &format!("cut at {cut}"));
            assert!(
                matches!(e, IndexFileError::Truncated { .. } | IndexFileError::Checksum { .. }),
                "cut at {cut}: {e}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let g = graph(12);
        let b = bytes(&index(&g, 1), &g);
        for pos in 0..b.len() {
            for bit in 0..8 {
                let mut d = b.clone();
                d[pos] ^= 1 << bit;
                let e = assert_rejected(&d, &g, &format!("bit {bit} of byte {pos}"));
                let want = match pos {
                    0..8 => matches!(e, IndexFileError::NotAnIndex),
                    8..12 => matches!(e, IndexFileError::Version(_)),
                    _ => matches!(e, IndexFileError::Checksum { .. }),
                };
                assert!(want, "bit {bit} of byte {pos}: {e}");
            }
        }
    }

    #[test]
    fn torn_write_and_damaged_trailer_are_detected() {
        let g = graph(30);
        let b = bytes(&index(&g, 1), &g);
        let mut torn = b.clone();
        let half = torn.len() / 2;
        torn[half..half + 64].fill(0);
        assert!(matches!(decode(&torn, &g), Err(IndexFileError::Checksum { .. })));
        let mut trailer = b.clone();
        *trailer.last_mut().unwrap() ^= 0x80;
        assert!(matches!(decode(&trailer, &g), Err(IndexFileError::Checksum { .. })));
        // Undamaged, it still reads clean.
        assert_eq!(contents(&decode(&b, &g).unwrap()), contents(&index(&g, 1)));
    }

    #[test]
    fn wrong_magic_and_wrong_version_are_named() {
        let g = graph(6);
        let b = bytes(&index(&g, 1), &g);
        let mut magic = b.clone();
        magic[..8].copy_from_slice(b"PEGPATHZ");
        assert!(matches!(decode(&magic, &g), Err(IndexFileError::NotAnIndex)));
        let mut version = b.clone();
        version[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        reseal(&mut version);
        let e = decode(&version, &g).err().unwrap();
        assert!(matches!(e, IndexFileError::Version(v) if v == FORMAT_VERSION + 1), "{e}");
        assert!(e.to_string().contains("version"));
        assert!(matches!(decode(b"", &g), Err(IndexFileError::Truncated { .. })));
    }

    #[test]
    fn counts_past_the_bytes_left_are_errors_not_allocations() {
        let g = graph(30);
        let b = bytes(&index(&g, 1), &g);
        let grid = crate::DEFAULT_HIST_GRID.len();
        let stamp = 36 + 8 * grid;
        let first_seq = stamp + 28;
        let first_len = le_u32(&b[first_seq..first_seq + 4]) as usize;
        let first_counts = first_seq + 4 + 2 * first_len;
        let max = u32::MAX.to_le_bytes();
        // Grid count, sequence count, a sequence's length, a bucket count.
        for at in [32, stamp + 24, first_seq, first_counts] {
            let mut d = b.clone();
            d[at..at + 4].copy_from_slice(&max);
            reseal(&mut d);
            let e = assert_rejected(&d, &g, &format!("count at {at}"));
            assert!(
                matches!(e, IndexFileError::Truncated { .. } | IndexFileError::Corrupt(_)),
                "count at {at}: {e}"
            );
        }
        // A bucket resolution past the cap: each sequence would allocate
        // far more bucket headers than its table row has bytes.
        for gamma in [1e-300, 1.0 / 65_536.0, 1.0 / 255.5, 0.0, f64::NAN] {
            let mut d = b.clone();
            d[24..32].copy_from_slice(&gamma.to_le_bytes());
            reseal(&mut d);
            let e = assert_rejected(&d, &g, &format!("gamma {gamma}"));
            assert!(matches!(e, IndexFileError::Resolution(_)), "gamma {gamma}: {e}");
        }
    }

    #[test]
    fn the_bucket_cap_holds_on_save_too() {
        let g = graph(6);
        let fine = PathIndexConfig { max_len: 1, gamma: 1.0 / 255.0, ..Default::default() };
        assert_eq!(fine.n_buckets(), MAX_BUCKETS);
        let idx = build_index(&g, &NoIdentity, &fine);
        assert_eq!(contents(&decode(&bytes(&idx, &g), &g).unwrap()), contents(&idx));
        let finer = PathIndexConfig { gamma: 1.0 / 256.0, ..fine };
        let e = encode(&build_index(&g, &NoIdentity, &finer), &g).err().unwrap();
        assert!(matches!(e, IndexFileError::Resolution(_)), "{e}");
    }

    #[test]
    fn another_graph_or_a_node_past_its_end_is_refused() {
        let g = graph(30);
        let idx = index(&g, 1);
        let b = bytes(&idx, &g);
        let e = decode(&b, &graph(29)).err().unwrap();
        assert!(matches!(e, IndexFileError::GraphMismatch { .. }), "{e}");
        // A node id past the graph's end, behind a valid stamp and trailer.
        let body_end = b.len() - TRAILER;
        let (seq, se) = idx.map.iter().max_by_key(|(s, _)| (*s).clone()).unwrap();
        let last = se.buckets.iter().rev().find(|b| !b.chunks.is_empty()).unwrap();
        let n = last.chunks.iter().map(|c| c.len()).sum::<usize>();
        let nodes_at = body_end - 16 * n - 4 * seq.len() * n;
        let mut d = b.clone();
        d[nodes_at..nodes_at + 4].copy_from_slice(&30u32.to_le_bytes());
        reseal(&mut d);
        let e = decode(&d, &g).err().unwrap();
        assert!(matches!(e, IndexFileError::NodeOutOfRange { node: 30, nodes: 30 }), "{e}");
    }
}
