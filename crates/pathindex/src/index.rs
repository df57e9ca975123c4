//! In-memory index structure and lookups.

use crate::histogram::estimate_at;
use graphstore::hash::FxHashMap;
use graphstore::{EntityId, Label};
use std::sync::Arc;

/// Identity-uncertainty oracle: the piece of the PEG the index needs.
///
/// Implemented by `pegmatch::model::ExistenceModel`; kept as a trait so this
/// crate stays below the core library in the dependency graph.
pub trait IdentityOracle: Sync {
    /// `Prn` of a set of entity nodes: probability they co-exist.
    fn prn(&self, nodes: &[EntityId]) -> f64;

    /// Fast path: node exists in every world (lets builders skip `prn`).
    fn always_exists(&self, _v: EntityId) -> bool {
        false
    }
}

/// Trivial oracle for graphs without identity uncertainty.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoIdentity;

impl IdentityOracle for NoIdentity {
    fn prn(&self, _nodes: &[EntityId]) -> f64 {
        1.0
    }

    fn always_exists(&self, _v: EntityId) -> bool {
        true
    }
}

/// Construction parameters.
#[derive(Clone, Debug)]
pub struct PathIndexConfig {
    /// Maximum path length `L` in edges (0 = single nodes only).
    pub max_len: usize,
    /// Probability lower bound `β` for indexed paths.
    pub beta: f64,
    /// Bucket resolution `γ`.
    pub gamma: f64,
    /// Worker threads for construction (0 = all available cores).
    pub threads: usize,
    /// Histogram probability points (ascending).
    pub hist_grid: Vec<f64>,
}

impl Default for PathIndexConfig {
    fn default() -> Self {
        Self {
            max_len: 3,
            beta: 0.3,
            gamma: 0.1,
            threads: 0,
            hist_grid: crate::DEFAULT_HIST_GRID.to_vec(),
        }
    }
}

impl PathIndexConfig {
    /// Number of buckets implied by `gamma`.
    pub fn n_buckets(&self) -> usize {
        (1.0 / self.gamma).ceil() as usize + 1
    }

    /// Bucket index for probability `p`.
    pub fn bucket_of(&self, p: f64) -> usize {
        ((p / self.gamma) as usize).min(self.n_buckets() - 1)
    }
}

/// One stored path under a specific label assignment: a borrowed view of
/// one entry of the index's flat buckets.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StoredPath<'a> {
    /// Node ids along the path (canonical orientation).
    pub nodes: &'a [u32],
    /// `Prle` under the key's label assignment.
    pub prle: f64,
    /// `Prn` of the path's node set.
    pub prn: f64,
}

impl StoredPath<'_> {
    /// Total probability `Prle · Prn`.
    #[inline]
    pub fn prob(&self) -> f64 {
        self.prle * self.prn
    }
}

/// Borrowing iterator over the rows of a [`PathMatches`] (or of one index
/// bucket — the same three columns).
#[derive(Clone, Debug)]
pub struct PathMatchesIter<'a> {
    nodes: std::slice::ChunksExact<'a, u32>,
    prle: std::slice::Iter<'a, f64>,
    prn: std::slice::Iter<'a, f64>,
}

impl<'a> Iterator for PathMatchesIter<'a> {
    type Item = StoredPath<'a>;

    #[inline]
    fn next(&mut self) -> Option<StoredPath<'a>> {
        Some(StoredPath {
            nodes: self.nodes.next()?,
            prle: *self.prle.next()?,
            prn: *self.prn.next()?,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.prle.size_hint()
    }
}

impl ExactSizeIterator for PathMatchesIter<'_> {}

impl<'a> IntoIterator for &'a PathMatches {
    type Item = StoredPath<'a>;
    type IntoIter = PathMatchesIter<'a>;

    fn into_iter(self) -> PathMatchesIter<'a> {
        self.iter()
    }
}

/// One directed path match, owned: what [`PathMatches::to_vec`] yields for
/// callers that want to hold matches one by one (tests, experiments). The
/// query path never builds these — it reads [`PathMatches`] rows in place.
#[derive(Clone, Debug, PartialEq)]
pub struct PathMatch {
    /// Node ids in query orientation: `nodes[i]` matches position `i` of the
    /// requested label sequence.
    pub nodes: Vec<EntityId>,
    /// `Prle` under the requested label sequence.
    pub prle: f64,
    /// `Prn` of the node set.
    pub prn: f64,
}

impl PathMatch {
    /// Total probability.
    #[inline]
    pub fn prob(&self) -> f64 {
        self.prle * self.prn
    }
}

/// Most nodes one [`packed_key`] packs.
pub const KEY_WIDTH: usize = 4;

/// Node ids packed big-endian, 32 bits each, first id most significant:
/// the keys of two equally long sequences compare as the sequences do. At
/// most [`KEY_WIDTH`] ids fit.
#[inline]
pub fn packed_key(nodes: impl IntoIterator<Item = u32>) -> u128 {
    nodes.into_iter().fold(0, |key, n| (key << 32) | n as u128)
}

/// Directed path matches of one label sequence, flat: match `i` is
/// `nodes[i * stride..(i + 1) * stride]` (query orientation — position `p`
/// of the row matches position `p` of the requested sequence), `prle[i]`,
/// `prn[i]`, with `stride` the sequence length. Three buffers for the
/// whole set rather than one allocation per match: what lookups return,
/// and the shape a candidate keeps from the index bucket through pruning,
/// the execution cache and the shard reply to the join.
#[derive(Clone, Debug, PartialEq)]
pub struct PathMatches {
    stride: usize,
    nodes: Vec<u32>,
    prle: Vec<f64>,
    prn: Vec<f64>,
}

impl PathMatches {
    /// An empty set of matches of `stride` nodes each. Stride 0 is the
    /// set of the empty label sequence, which matches nothing and stays
    /// empty.
    pub fn new(stride: usize) -> Self {
        Self::with_capacity(stride, 0)
    }

    /// An empty set with room for `n` matches.
    pub fn with_capacity(stride: usize, n: usize) -> Self {
        Self {
            stride,
            nodes: Vec::with_capacity(n * stride),
            prle: Vec::with_capacity(n),
            prn: Vec::with_capacity(n),
        }
    }

    /// A set over whole columns: `prle.len()` matches of `stride` nodes
    /// each, `nodes` their arena row after row. `None` unless the three
    /// lengths agree (`nodes.len() == stride · prle.len()`, one `prn` per
    /// `prle`) and a non-empty set has `stride ≥ 1`.
    pub fn from_columns(
        stride: usize,
        nodes: Vec<u32>,
        prle: Vec<f64>,
        prn: Vec<f64>,
    ) -> Option<Self> {
        let n = prle.len();
        let fits =
            prn.len() == n && stride.checked_mul(n) == Some(nodes.len()) && (stride > 0 || n == 0);
        fits.then_some(Self { stride, nodes, prle, prn })
    }

    /// Nodes per match.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of matches.
    pub fn len(&self) -> usize {
        self.prle.len()
    }

    /// Whether there are no matches.
    pub fn is_empty(&self) -> bool {
        self.prle.is_empty()
    }

    /// Appends one match; `nodes` must yield exactly `stride` ids.
    #[inline]
    pub fn push(&mut self, nodes: impl IntoIterator<Item = u32>, prle: f64, prn: f64) {
        debug_assert!(self.stride > 0, "a path has at least one node");
        self.nodes.extend(nodes);
        self.prle.push(prle);
        self.prn.push(prn);
        debug_assert_eq!(self.nodes.len(), self.prle.len() * self.stride);
    }

    /// The node arena, row after row.
    pub fn nodes(&self) -> &[u32] {
        &self.nodes
    }

    /// The node arena, writable — for renumbering every id in one pass.
    pub fn nodes_mut(&mut self) -> &mut [u32] {
        &mut self.nodes
    }

    /// The nodes of match `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[u32] {
        &self.nodes[i * self.stride..(i + 1) * self.stride]
    }

    /// `Prle` per match.
    pub fn prle(&self) -> &[f64] {
        &self.prle
    }

    /// `Prn` per match.
    pub fn prn(&self) -> &[f64] {
        &self.prn
    }

    /// The matches in order, borrowed.
    pub fn iter(&self) -> PathMatchesIter<'_> {
        PathMatchesIter {
            // A stride-0 set is empty; any chunk size walks its arena.
            nodes: self.nodes.chunks_exact(self.stride.max(1)),
            prle: self.prle.iter(),
            prn: self.prn.iter(),
        }
    }

    /// The matches as owned values, one allocation each.
    pub fn to_vec(&self) -> Vec<PathMatch> {
        self.iter()
            .map(|m| PathMatch {
                nodes: m.nodes.iter().map(|&n| EntityId(n)).collect(),
                prle: m.prle,
                prn: m.prn,
            })
            .collect()
    }

    /// Heap bytes held, growth slack included.
    pub fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * 4 + (self.prle.capacity() + self.prn.capacity()) * 8
    }

    /// The matches `rows` names, in that order, in buffers of exactly
    /// that size.
    pub fn gather(&self, rows: &[u32]) -> PathMatches {
        let mut out = PathMatches::with_capacity(self.stride, rows.len());
        for &r in rows {
            out.nodes.extend_from_slice(self.row(r as usize));
            out.prle.push(self.prle[r as usize]);
            out.prn.push(self.prn[r as usize]);
        }
        out
    }

    /// Sorts `rows` (indices of matches) by ascending node sequence — on
    /// `(packed key, row)` pairs while a row fits one key, by comparing
    /// rows otherwise.
    pub fn sort_rows(&self, rows: &mut [u32]) {
        if self.stride > KEY_WIDTH {
            rows.sort_unstable_by(|&a, &b| self.row(a as usize).cmp(self.row(b as usize)));
            return;
        }
        let mut keyed: Vec<(u128, u32)> =
            rows.iter().map(|&r| (packed_key(self.row(r as usize).iter().copied()), r)).collect();
        keyed.sort_unstable();
        for (slot, (_, r)) in rows.iter_mut().zip(keyed) {
            *slot = r;
        }
    }
}

/// Most entries in one [`Chunk`]. Lookups read a bucket chunk by
/// chunk, and an update copies the chunks its changes fall into: 512
/// entries keep lookups as fast as whole buckets did, and an update's
/// copies a small share of the index. Unit tests use a width small enough
/// that their graphs span several chunks.
#[cfg(not(test))]
const CHUNK: usize = 512;
#[cfg(test)]
pub(crate) const CHUNK: usize = 4;

/// A run of at most [`CHUNK`] consecutive entries of one bucket, flat:
/// entry `i` is `nodes[i * stride..(i + 1) * stride]`, `prle[i]`,
/// `prn[i]`, with `stride` the sequence length.
///
/// A chunk's bytes never change once it is behind an `Arc`: an update
/// builds new chunks where its changes fall and shares every other one
/// with the generation before ([`crate::update_index`]).
#[derive(Clone, Debug, Default)]
pub(crate) struct Chunk {
    pub(crate) nodes: Vec<u32>,
    pub(crate) prle: Vec<f64>,
    pub(crate) prn: Vec<f64>,
}

impl Chunk {
    /// An empty chunk with room for `n` entries of `stride` nodes.
    fn with_capacity(n: usize, stride: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(n * stride),
            prle: Vec::with_capacity(n),
            prn: Vec::with_capacity(n),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.prle.len()
    }

    /// The nodes of entry `i`.
    #[inline]
    pub(crate) fn row(&self, i: usize, stride: usize) -> &[u32] {
        &self.nodes[i * stride..(i + 1) * stride]
    }

    /// The entries in order; `stride` is the sequence length.
    pub(crate) fn iter(&self, stride: usize) -> PathMatchesIter<'_> {
        PathMatchesIter {
            nodes: self.nodes.chunks_exact(stride),
            prle: self.prle.iter(),
            prn: self.prn.iter(),
        }
    }

    #[inline]
    fn push(&mut self, nodes: impl IntoIterator<Item = u32>, prle: f64, prn: f64) {
        self.nodes.extend(nodes);
        self.prle.push(prle);
        self.prn.push(prn);
    }

    /// The index of the first entry whose nodes are not below `key`.
    fn position(&self, key: &[u32], stride: usize) -> usize {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.row(mid, stride) < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Appends entries `lo..hi` of `other`.
    fn extend_from(&mut self, other: &Chunk, lo: usize, hi: usize, stride: usize) {
        self.nodes.extend_from_slice(&other.nodes[lo * stride..hi * stride]);
        self.prle.extend_from_slice(&other.prle[lo..hi]);
        self.prn.extend_from_slice(&other.prn[lo..hi]);
    }

    fn shrink_to_fit(&mut self) {
        self.nodes.shrink_to_fit();
        self.prle.shrink_to_fit();
        self.prn.shrink_to_fit();
    }

    fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * 4 + (self.prle.capacity() + self.prn.capacity()) * 8
    }
}

/// The entries of one `(canonical sequence, probability bucket)`,
/// ascending by node tuple (no tuple twice: a sequence fixes every
/// node's label), in chunks of at most [`CHUNK`] entries, none empty. The
/// order is the one a one-thread build emits, so it is what every build,
/// load and update leaves.
#[derive(Clone, Debug, Default)]
pub(crate) struct Bucket {
    pub(crate) chunks: Vec<Arc<Chunk>>,
}

impl Bucket {
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.chunks.iter().map(|c| c.len()).sum()
    }

    /// The entries in order; `stride` is the sequence length.
    pub(crate) fn iter(&self, stride: usize) -> impl Iterator<Item = StoredPath<'_>> {
        self.chunks.iter().flat_map(move |c| c.iter(stride))
    }

    /// Takes out the entries whose nodes `gone` lists and puts in `new`'s
    /// (both ascending by node tuple), keeping the order. A chunk covers
    /// the tuples from its first up to the next chunk's first (the first
    /// chunk everything below, the last everything above); only the
    /// chunks a change falls into are rebuilt, split evenly to at most
    /// [`CHUNK`] entries each, and every other one stays shared.
    /// `changed` sees each entry's total probability as it leaves
    /// (`false`) or enters (`true`).
    fn patch(
        &self,
        stride: usize,
        gone: &[&[u32]],
        new: &[StoredPath<'_>],
        changed: &mut impl FnMut(f64, bool),
    ) -> Bucket {
        let (mut g, mut n) = (0, 0);
        let mut out: Vec<Arc<Chunk>> = Vec::with_capacity(self.chunks.len() + 1);
        for (c, chunk) in self.chunks.iter().enumerate() {
            // The changes below the next chunk's first tuple fall here.
            let (g_end, n_end) = match self.chunks.get(c + 1) {
                Some(next) => {
                    let bound = next.row(0, stride);
                    (
                        g + gone[g..].partition_point(|k| *k < bound),
                        n + new[n..].partition_point(|e| e.nodes < bound),
                    )
                }
                None => (gone.len(), new.len()),
            };
            if (g, n) == (g_end, n_end) {
                out.push(Arc::clone(chunk));
                continue;
            }
            // Copy the chunk in runs between the changes' positions.
            let m = chunk.len() + (n_end - n) - (g_end - g);
            let mut w = Pieces::new(&mut out, m, stride);
            let mut from = 0;
            while g < g_end || n < n_end {
                let at_gone = (g < g_end).then(|| chunk.position(gone[g], stride));
                let at_new = (n < n_end).then(|| chunk.position(new[n].nodes, stride));
                let pos = at_gone.into_iter().chain(at_new).min().expect("a change is left");
                w.run(chunk, from, pos);
                from = pos;
                if at_new.is_some_and(|p| at_gone.is_none_or(|q| p <= q)) {
                    changed(new[n].prob(), true);
                    w.push(new[n]);
                    n += 1;
                } else {
                    if pos < chunk.len() && chunk.row(pos, stride) == gone[g] {
                        changed(chunk.prle[pos] * chunk.prn[pos], false);
                        from = pos + 1;
                    } else {
                        debug_assert!(false, "every dropped entry is stored");
                    }
                    g += 1;
                }
            }
            w.run(chunk, from, chunk.len());
            w.finish();
            (g, n) = (g_end, n_end);
        }
        if self.chunks.is_empty() && !new.is_empty() {
            let mut w = Pieces::new(&mut out, new.len(), stride);
            for &e in new {
                changed(e.prob(), true);
                w.push(e);
            }
            w.finish();
        }
        Bucket { chunks: out }
    }
}

/// Writes `m` entries, in order, straight into the fewest chunks of at
/// most [`CHUNK`] entries, their sizes differing by at most one, each
/// allocated at its size.
struct Pieces<'a> {
    out: &'a mut Vec<Arc<Chunk>>,
    stride: usize,
    m: usize,
    k: usize,
    /// Chunks written so far.
    done: usize,
    cur: Chunk,
    cur_size: usize,
}

impl<'a> Pieces<'a> {
    fn new(out: &'a mut Vec<Arc<Chunk>>, m: usize, stride: usize) -> Self {
        let m = m.max(1);
        let k = m.div_ceil(CHUNK);
        let cur_size = m / k;
        let cur = Chunk::with_capacity(cur_size, stride);
        Self { out, stride, m, k, done: 0, cur, cur_size }
    }

    /// Entries `lo..hi` of `src`.
    fn run(&mut self, src: &Chunk, mut lo: usize, hi: usize) {
        while lo < hi {
            if self.cur.len() == self.cur_size {
                self.next();
            }
            let take = (self.cur_size - self.cur.len()).min(hi - lo);
            self.cur.extend_from(src, lo, lo + take, self.stride);
            lo += take;
        }
    }

    fn push(&mut self, e: StoredPath<'_>) {
        if self.cur.len() == self.cur_size {
            self.next();
        }
        self.cur.push(e.nodes.iter().copied(), e.prle, e.prn);
    }

    /// Seals the current chunk and opens the next.
    fn next(&mut self) {
        self.done += 1;
        let (p, m, k) = (self.done, self.m, self.k);
        self.cur_size = ((p + 1) * m / k - p * m / k).max(1);
        let full =
            std::mem::replace(&mut self.cur, Chunk::with_capacity(self.cur_size, self.stride));
        self.out.push(Arc::new(full));
    }

    fn finish(self) {
        if self.cur.len() > 0 {
            self.out.push(Arc::new(self.cur));
        }
    }
}

/// Everything stored under one canonical label sequence.
#[derive(Clone, Debug)]
pub(crate) struct SeqEntries {
    /// One [`Bucket`] per probability bucket, ascending, each shared by
    /// `Arc` between generations until an update changes it.
    pub(crate) buckets: Vec<Arc<Bucket>>,
    /// `hist[i]`: entries with total probability ≥ `hist_grid[i]`. Kept
    /// current by every insert and removal, so it always equals a recount.
    pub(crate) hist: Vec<u32>,
}

impl SeqEntries {
    pub(crate) fn is_empty(&self) -> bool {
        self.buckets.iter().all(|b| b.chunks.is_empty())
    }

    /// All entries, bucket by bucket; `stride` is the sequence length.
    pub(crate) fn iter(&self, stride: usize) -> impl Iterator<Item = StoredPath<'_>> {
        self.buckets.iter().flat_map(move |b| b.iter(stride))
    }
}

/// A bucket being filled: chunk after chunk, the last one open.
type FillBucket = Vec<Chunk>;

/// Entries being collected for a new index, in chunks owned outright:
/// the one place a build or a load inserts an entry. [`PathIndex::from_fill`]
/// seals a fill into an index.
pub(crate) struct Fill {
    config: PathIndexConfig,
    /// Canonical sequence → its position in `seqs`.
    ids: FxHashMap<Vec<u16>, u32>,
    /// Per sequence: the sequence, its buckets and histogram counts.
    seqs: Vec<(Vec<u16>, Vec<FillBucket>, Vec<u32>)>,
    n_entries: usize,
}

impl Fill {
    pub(crate) fn new(config: PathIndexConfig) -> Self {
        Self { config, ids: FxHashMap::default(), seqs: Vec::new(), n_entries: 0 }
    }

    /// Appends one entry to the bucket of its total probability and counts
    /// it into its sequence's histogram. The sequence table is probed
    /// once.
    pub(crate) fn insert(
        &mut self,
        canonical: &[u16],
        nodes: impl IntoIterator<Item = u32>,
        prle: f64,
        prn: f64,
    ) {
        let p = prle * prn;
        let id = match self.ids.get(canonical) {
            Some(&id) => id as usize,
            None => {
                let id = self.seqs.len();
                self.ids.insert(canonical.to_vec(), id as u32);
                let buckets = vec![Vec::new(); self.config.n_buckets()];
                let hist = vec![0; self.config.hist_grid.len()];
                self.seqs.push((canonical.to_vec(), buckets, hist));
                id
            }
        };
        let stride = canonical.len();
        let (_, buckets, hist) = &mut self.seqs[id];
        let chunks = &mut buckets[self.config.bucket_of(p)];
        if chunks.last().is_none_or(|c| c.len() == CHUNK) {
            // A bucket past one chunk will likely fill the next: size it
            // exactly. Its first chunk grows as entries come.
            let room = if chunks.is_empty() { 0 } else { CHUNK };
            chunks.push(Chunk::with_capacity(room, stride));
        }
        chunks.last_mut().expect("an open chunk").push(nodes, prle, prn);
        count_hist(hist, &self.config.hist_grid, p, true);
        self.n_entries += 1;
    }
}

/// A filled bucket behind `Arc`s, sorted (a build's buckets already are;
/// a file's may not be), growth slack given back.
fn seal(chunks: FillBucket, stride: usize) -> Bucket {
    let rows = || chunks.iter().flat_map(|c| c.iter(stride));
    if rows().map(|e| e.nodes).is_sorted_by(|a, b| a < b) {
        let shrunk = chunks.into_iter().map(|mut c| {
            c.shrink_to_fit();
            Arc::new(c)
        });
        return Bucket { chunks: shrunk.collect() };
    }
    let mut rows: Vec<StoredPath<'_>> = rows().collect();
    rows.sort_unstable_by(|a, b| a.nodes.cmp(b.nodes));
    let mut out = Vec::new();
    let mut w = Pieces::new(&mut out, rows.len(), stride);
    rows.iter().for_each(|&e| w.push(e));
    w.finish();
    Bucket { chunks: out }
}

/// Entries an update takes out of an index and puts into it, per
/// canonical sequence: what [`PathIndex::patch`] applies.
#[derive(Default)]
pub(crate) struct Edits {
    /// Per sequence: `[taken out, put in]`.
    map: FxHashMap<Vec<u16>, [PathMatches; 2]>,
}

impl Edits {
    /// Records one entry to take out (`put_in` false) or to put in.
    pub(crate) fn push(
        &mut self,
        put_in: bool,
        canonical: &[u16],
        nodes: impl IntoIterator<Item = u32>,
        prle: f64,
        prn: f64,
    ) {
        if !self.map.contains_key(canonical) {
            let empty = || PathMatches::new(canonical.len());
            self.map.insert(canonical.to_vec(), [empty(), empty()]);
        }
        self.map.get_mut(canonical).expect("inserted above")[usize::from(put_in)]
            .push(nodes, prle, prn);
    }
}

/// The entries of `m`, each with its bucket, ordered by (bucket, node
/// tuple).
fn bucket_order<'a>(m: &'a PathMatches, config: &PathIndexConfig) -> Vec<(usize, StoredPath<'a>)> {
    // Node tuples that fit one packed key compare as their keys do.
    let packed = m.stride() <= KEY_WIDTH;
    let mut rows: Vec<(usize, u128, StoredPath<'a>)> = m
        .iter()
        .map(|e| {
            let key = if packed { packed_key(e.nodes.iter().copied()) } else { 0 };
            (config.bucket_of(e.prob()), key, e)
        })
        .collect();
    rows.sort_unstable_by(|a, b| {
        (a.0, a.1).cmp(&(b.0, b.1)).then_with(|| a.2.nodes.cmp(b.2.nodes))
    });
    rows.into_iter().map(|(b, _, e)| (b, e)).collect()
}

/// Counts an entry of total probability `p` into (`add`) or out of `hist`:
/// one step at every grid point `p` reaches.
#[inline]
pub(crate) fn count_hist(hist: &mut [u32], grid: &[f64], p: f64, add: bool) {
    for (count, &g) in hist.iter_mut().zip(grid) {
        if p >= g {
            *count = if add { *count + 1 } else { *count - 1 };
        }
    }
}

/// The context-aware path index (in-memory form).
#[derive(Clone, Debug)]
pub struct PathIndex {
    config: PathIndexConfig,
    pub(crate) map: FxHashMap<Vec<u16>, SeqEntries>,
    pub(crate) n_entries: usize,
}

/// Canonical orientation of a label sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Orientation {
    /// The requested sequence is stored as-is.
    Forward,
    /// The requested sequence is stored reversed.
    Reverse,
    /// Palindromic: stored entries yield both directions.
    Palindrome,
}

/// Compares a sequence with its own reversal without allocating.
pub(crate) fn cmp_with_reversed<T: Ord>(seq: &[T]) -> std::cmp::Ordering {
    seq.iter().cmp(seq.iter().rev())
}

/// How `labels` relates to the orientation it is stored under.
fn orientation(labels: &[Label]) -> Orientation {
    match cmp_with_reversed(labels) {
        std::cmp::Ordering::Less => Orientation::Forward,
        std::cmp::Ordering::Greater => Orientation::Reverse,
        std::cmp::Ordering::Equal => Orientation::Palindrome,
    }
}

/// Label sequences up to this long are canonicalized on the stack.
const CANON_INLINE: usize = 8;

/// Calls `f` with the canonical (stored) orientation of `labels` — the key
/// the index maps are probed with — and how `labels` relates to it. The
/// key lives on the stack unless the sequence is longer than any served
/// index path.
pub(crate) fn with_canonical<R>(labels: &[Label], f: impl FnOnce(&[u16], Orientation) -> R) -> R {
    let orient = orientation(labels);
    let n = labels.len();
    let fill = |key: &mut [u16]| {
        for (i, slot) in key.iter_mut().enumerate() {
            *slot = if orient == Orientation::Reverse { labels[n - 1 - i].0 } else { labels[i].0 };
        }
    };
    if n <= CANON_INLINE {
        let mut key = [0u16; CANON_INLINE];
        fill(&mut key[..n]);
        f(&key[..n], orient)
    } else {
        let mut key = vec![0u16; n];
        fill(&mut key);
        f(&key, orient)
    }
}

/// Canonical storage orientation of a label sequence, plus whether the
/// sequence is palindromic (palindromic lookups yield both directions per
/// stored entry, which doubles histogram estimates).
///
/// Public so composite stores (e.g. a sharded store merging per-shard
/// histograms) can reproduce [`PathIndex::estimate_count`]'s keying
/// exactly.
pub fn canonical_label_seq(labels: &[Label]) -> (Vec<u16>, bool) {
    with_canonical(labels, |key, orient| (key.to_vec(), orient == Orientation::Palindrome))
}

/// The estimation core shared by [`PathIndex::estimate_count`] and
/// composite stores holding merged histograms: interpolate `counts` at
/// `alpha` over `grid` and double palindromic multi-node sequences (their
/// entries answer both directions). Keeping this in one place is what
/// guarantees a store with bit-identical counts produces bit-identical
/// estimates.
pub fn estimate_from_counts(
    grid: &[f64],
    counts: &[u32],
    alpha: f64,
    palindrome: bool,
    seq_len: usize,
) -> f64 {
    let base = estimate_at(grid, counts, alpha);
    let factor = if palindrome && seq_len > 1 { 2.0 } else { 1.0 };
    base * factor
}

impl PathIndex {
    /// Seals `fill` into an index: every bucket goes behind `Arc`s,
    /// sorted if it is not already.
    pub(crate) fn from_fill(fill: Fill) -> Self {
        let map = fill
            .seqs
            .into_iter()
            .map(|(seq, buckets, hist)| {
                let buckets = buckets.into_iter().map(|b| Arc::new(seal(b, seq.len()))).collect();
                (seq, SeqEntries { buckets, hist })
            })
            .collect();
        Self { config: fill.config, map, n_entries: fill.n_entries }
    }

    /// Applies `edits`, sequence by sequence and bucket by bucket, and
    /// returns the sequences it took entries out of (the only ones it can
    /// have emptied). Both sides are sorted by (bucket, node tuple), and
    /// an entry on both sides with the same bits cancels: it stays where
    /// it is. The rest goes through [`Bucket::patch`], so only the chunks
    /// a change falls into are rebuilt; histogram counts and the entry
    /// count move by one per entry that left or entered.
    pub(crate) fn patch(&mut self, edits: Edits) -> Vec<Vec<u16>> {
        use std::cmp::Ordering::{Equal, Greater, Less};
        let config = self.config.clone();
        let n_buckets = config.n_buckets();
        let mut lost = Vec::new();
        for (seq, [out, put]) in edits.map {
            // Per bucket, the node tuples to take out and the entries to
            // put in, ascending.
            let mut gone: Vec<Vec<&[u32]>> = vec![Vec::new(); n_buckets];
            let mut new: Vec<Vec<StoredPath<'_>>> = vec![Vec::new(); n_buckets];
            let (o, p) = (bucket_order(&out, &config), bucket_order(&put, &config));
            let (mut i, mut j) = (0, 0);
            while i < o.len() || j < p.len() {
                let order = match (o.get(i), p.get(j)) {
                    (Some(x), Some(y)) => (x.0, x.1.nodes).cmp(&(y.0, y.1.nodes)),
                    (Some(_), None) => Less,
                    _ => Greater,
                };
                match order {
                    Less => gone[o[i].0].push(o[i].1.nodes),
                    Greater => new[p[j].0].push(p[j].1),
                    Equal => {
                        let ((b, x), y) = (o[i], p[j].1);
                        if x.prle.to_bits() != y.prle.to_bits()
                            || x.prn.to_bits() != y.prn.to_bits()
                        {
                            gone[b].push(x.nodes);
                            new[b].push(y);
                        }
                    }
                }
                i += usize::from(order != Greater);
                j += usize::from(order != Less);
            }
            if gone.iter().all(Vec::is_empty) && new.iter().all(Vec::is_empty) {
                continue;
            }
            if gone.iter().any(|g| !g.is_empty()) {
                lost.push(seq.clone());
            }
            let se = self.map.entry(seq).or_insert_with(|| SeqEntries {
                buckets: vec![Arc::default(); n_buckets],
                hist: vec![0; config.hist_grid.len()],
            });
            let stride = out.stride();
            let mut n_entries = self.n_entries;
            let mut changed = |p: f64, add: bool| {
                count_hist(&mut se.hist, &config.hist_grid, p, add);
                n_entries = if add { n_entries + 1 } else { n_entries - 1 };
            };
            for (b, (gone, new)) in gone.iter().zip(&new).enumerate() {
                if !gone.is_empty() || !new.is_empty() {
                    let patched = se.buckets[b].patch(stride, gone, new, &mut changed);
                    se.buckets[b] = Arc::new(patched);
                }
            }
            self.n_entries = n_entries;
        }
        lost
    }

    /// Removes each of `seqs` left without entries.
    pub(crate) fn remove_emptied(&mut self, seqs: &[Vec<u16>]) {
        for seq in seqs {
            if self.map.get(seq).is_some_and(SeqEntries::is_empty) {
                self.map.remove(seq);
            }
        }
    }

    /// The construction parameters.
    pub fn config(&self) -> &PathIndexConfig {
        &self.config
    }

    /// Total stored entries (canonical paths × label assignments).
    pub fn n_entries(&self) -> usize {
        self.n_entries
    }

    /// Number of distinct canonical label sequences.
    pub fn n_sequences(&self) -> usize {
        self.map.len()
    }

    /// In-memory footprint in bytes: the chunks' heap buffers plus the
    /// per-sequence, per-bucket and per-chunk headers (hash-table slack
    /// excluded). A chunk shared with another generation counts in each.
    pub fn approx_bytes(&self) -> u64 {
        use std::mem::size_of;
        // An `Arc`'s heap block: two counts, then the chunk's header.
        let chunk_block = 2 * size_of::<usize>() + size_of::<Chunk>();
        let mut total = 0usize;
        for (k, v) in &self.map {
            total += size_of::<Vec<u16>>() + k.len() * 2;
            total += size_of::<SeqEntries>() + v.hist.len() * 4;
            for b in &v.buckets {
                total += size_of::<Arc<Bucket>>() + 2 * size_of::<usize>() + size_of::<Bucket>();
                total += b.chunks.capacity() * size_of::<Arc<Chunk>>();
                total += b.chunks.iter().map(|c| chunk_block + c.heap_bytes()).sum::<usize>();
            }
        }
        total as u64
    }

    /// Per-sequence histogram counts over the subset of entries
    /// satisfying `keep` — computed exactly as the index's own histograms
    /// are, but with non-matching entries skipped. Sequences with no kept
    /// entry are omitted; the output is sorted by sequence for
    /// deterministic iteration.
    ///
    /// A sharded store uses this to count each path exactly once (at the
    /// shard that owns it), so that summing per-shard histograms
    /// element-wise reproduces the unsharded histogram — and with it,
    /// bit-identical cardinality estimates.
    pub fn histogram_counts_where(
        &self,
        keep: &dyn Fn(&StoredPath<'_>) -> bool,
    ) -> Vec<(Vec<u16>, Vec<u32>)> {
        let grid = &self.config.hist_grid;
        let mut out: Vec<(Vec<u16>, Vec<u32>)> = Vec::new();
        for (seq, se) in &self.map {
            let mut counts = vec![0u32; grid.len()];
            let mut any = false;
            for e in se.iter(seq.len()).filter(|e| keep(e)) {
                any = true;
                count_hist(&mut counts, grid, e.prob(), true);
            }
            if any {
                out.push((seq.clone(), counts));
            }
        }
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// All directed path matches for `labels` with total probability
    /// ≥ `min_prob`, in bucket order. (`PIndex(lQ(VP), α)` of the paper.)
    pub fn lookup(&self, labels: &[Label], min_prob: f64) -> PathMatches {
        let mut out = PathMatches::new(labels.len());
        with_canonical(labels, |canonical, orient| {
            let Some(se) = self.map.get(canonical) else { return };
            // Start one bucket early: floating-point probabilities a hair
            // below `min_prob` may land in the previous bucket yet pass the
            // exact (epsilon-tolerant) per-entry filter below.
            let start_bucket = self.config.bucket_of(min_prob).saturating_sub(1);
            for chunk in se.buckets[start_bucket..].iter().flat_map(|b| &b.chunks) {
                for e in chunk.iter(canonical.len()) {
                    if e.prob() + 1e-12 >= min_prob {
                        push_matches(&mut out, orient, e);
                    }
                }
            }
        });
        out
    }

    /// Exact number of directed matches for `labels` at threshold `alpha`
    /// (linear in the candidate buckets; used by tests and small queries).
    pub fn count_exact(&self, labels: &[Label], alpha: f64) -> usize {
        self.lookup(labels, alpha).len()
    }

    /// Histogram-based estimate of `|PIndex(labels, alpha)|` using
    /// exponential interpolation between grid points (Section 5.2.1).
    pub fn estimate_count(&self, labels: &[Label], alpha: f64) -> f64 {
        with_canonical(labels, |canonical, orient| {
            let Some(se) = self.map.get(canonical) else {
                return 0.0;
            };
            estimate_from_counts(
                &self.config.hist_grid,
                &se.hist,
                alpha,
                orient == Orientation::Palindrome,
                labels.len(),
            )
        })
    }
}

/// The directed matches one stored entry answers under `orient`: itself,
/// its reversal, or — palindromic sequences of more than one node — both.
pub(crate) fn push_matches(out: &mut PathMatches, orient: Orientation, e: StoredPath<'_>) {
    if orient != Orientation::Reverse {
        out.push(e.nodes.iter().copied(), e.prle, e.prn);
    }
    if orient == Orientation::Reverse || (orient == Orientation::Palindrome && e.nodes.len() > 1) {
        out.push(e.nodes.iter().rev().copied(), e.prle, e.prn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalization() {
        let canon = |seq: &[u16]| {
            let labels: Vec<Label> = seq.iter().map(|&l| Label(l)).collect();
            with_canonical(&labels, |key, orient| (key.to_vec(), orient))
        };
        assert_eq!(canon(&[1, 2, 3]), (vec![1, 2, 3], Orientation::Forward));
        assert_eq!(canon(&[3, 2, 1]), (vec![1, 2, 3], Orientation::Reverse));
        assert_eq!(canon(&[2, 1, 2]), (vec![2, 1, 2], Orientation::Palindrome));
        assert_eq!(canon(&[5]), (vec![5], Orientation::Palindrome));
        // Past the inline width the key spills to the heap, same answer.
        let long: Vec<u16> = (0..12).rev().collect();
        assert_eq!(canon(&long), ((0..12).collect(), Orientation::Reverse));
        assert_eq!(canonical_label_seq(&[Label(2), Label(1), Label(2)]), (vec![2, 1, 2], true));
    }

    #[test]
    fn flat_matches_gather_filter_and_sort() {
        let mut m = PathMatches::new(2);
        for (i, nodes) in [[9u32, 1], [3, 7], [3, 2], [8, 8]].into_iter().enumerate() {
            m.push(nodes, 0.1 * (i + 1) as f64, 1.0);
        }
        assert_eq!((m.len(), m.stride()), (4, 2));
        assert_eq!(m.row(1), &[3, 7]);
        // Canonical order of a subset, by packed key.
        let mut rows = vec![0u32, 1, 2];
        m.sort_rows(&mut rows);
        assert_eq!(rows, vec![2, 1, 0]);
        let picked = m.gather(&rows);
        assert_eq!(picked.nodes(), &[3, 2, 3, 7, 9, 1]);
        assert_eq!(picked.prle()[0].to_bits(), m.prle()[2].to_bits());
        assert_eq!(picked.heap_bytes(), 3 * (2 * 4 + 16), "gathered buffers are exactly sized");
        // A comparator sort agrees with the key sort on the whole set.
        let mut all: Vec<u32> = (0..4).collect();
        m.sort_rows(&mut all);
        let by_key = m.gather(&all);
        let mut owned = m.to_vec();
        owned.sort_by(|a, b| a.nodes.cmp(&b.nodes));
        assert_eq!(owned, by_key.to_vec());
        assert_eq!(owned[0].nodes, vec![EntityId(3), EntityId(2)]);
        // Rows wider than a key fall back to comparing slices.
        let mut wide = PathMatches::new(5);
        wide.push([1, 2, 3, 4, 9], 0.5, 1.0);
        wide.push([1, 2, 3, 4, 5], 0.5, 1.0);
        let mut rows = vec![0u32, 1];
        wide.sort_rows(&mut rows);
        assert_eq!(rows, vec![1, 0]);
    }

    #[test]
    fn from_columns_checks_the_three_lengths() {
        let m = PathMatches::from_columns(2, vec![9, 1, 3, 7], vec![0.5, 0.25], vec![1.0, 1.0])
            .expect("lengths agree");
        let mut pushed = PathMatches::new(2);
        pushed.push([9, 1], 0.5, 1.0);
        pushed.push([3, 7], 0.25, 1.0);
        assert_eq!(m, pushed);
        // An empty set keeps whatever stride it is given, zero included.
        for stride in [0, 3] {
            let empty = PathMatches::from_columns(stride, vec![], vec![], vec![]).unwrap();
            assert_eq!((empty.len(), empty.stride()), (0, stride));
        }
        let bad = [
            (2, vec![9, 1, 3], vec![0.5, 0.25], vec![1.0, 1.0]), // arena one id short
            (2, vec![9, 1, 3, 7], vec![0.5, 0.25], vec![1.0]),   // a prn missing
            (0, vec![], vec![0.5], vec![1.0]),                   // rows of no nodes
            (usize::MAX, vec![9, 1], vec![0.5, 0.25], vec![1.0, 1.0]), // stride · n overflows
        ];
        for (stride, nodes, prle, prn) in bad {
            assert!(PathMatches::from_columns(stride, nodes, prle, prn).is_none(), "{stride}");
        }
    }

    #[test]
    fn bucket_math() {
        let cfg = PathIndexConfig { gamma: 0.1, ..Default::default() };
        assert_eq!(cfg.n_buckets(), 11);
        assert_eq!(cfg.bucket_of(0.0), 0);
        assert_eq!(cfg.bucket_of(0.55), 5);
        assert_eq!(cfg.bucket_of(1.0), 10);
    }

    /// An index of `(canonical sequence, nodes, prle)` entries, `prn` 1.
    fn index_of(entries: &[(&[u16], &[u32], f64)]) -> PathIndex {
        let mut fill = Fill::new(PathIndexConfig::default());
        for (seq, nodes, prle) in entries {
            fill.insert(seq, nodes.iter().copied(), *prle, 1.0);
        }
        PathIndex::from_fill(fill)
    }

    #[test]
    fn insert_lookup_direction_handling() {
        // Canonical sequence [1,2,3] with a path 10-11-12.
        let idx = index_of(&[(&[1, 2, 3], &[10, 11, 12], 0.8)]);

        let fwd = idx.lookup(&[Label(1), Label(2), Label(3)], 0.5);
        assert_eq!(fwd.len(), 1);
        assert_eq!(fwd.row(0), &[10, 11, 12]);

        let rev = idx.lookup(&[Label(3), Label(2), Label(1)], 0.5);
        assert_eq!(rev.len(), 1);
        assert_eq!(rev.row(0), &[12, 11, 10]);

        assert!(idx.lookup(&[Label(1), Label(2), Label(3)], 0.9).is_empty());
        assert!(idx.lookup(&[Label(9)], 0.1).is_empty());
        // The empty sequence matches nothing (and is not a panic).
        let none = idx.lookup(&[], 0.1);
        assert_eq!((none.len(), none.stride(), none.iter().count()), (0, 0, 0));
        assert_eq!(none.to_vec(), Vec::new());
    }

    #[test]
    fn palindrome_yields_both_directions() {
        let idx = index_of(&[(&[1, 2, 1], &[5, 6, 7], 0.9)]);
        let got = idx.lookup(&[Label(1), Label(2), Label(1)], 0.1);
        assert_eq!(got.len(), 2);
        assert_ne!(got.row(0), got.row(1));
        // Single nodes are not doubled.
        let idx2 = index_of(&[(&[4], &[9], 1.0)]);
        assert_eq!(idx2.lookup(&[Label(4)], 0.5).len(), 1);
    }

    #[test]
    fn estimate_uses_histogram_and_palindrome_factor() {
        let paths: Vec<[u32; 3]> = (0..10).map(|i| [i, i + 100, i + 200]).collect();
        let entries: Vec<(&[u16], &[u32], f64)> =
            paths.iter().map(|p| (&[1u16, 2, 1][..], &p[..], 0.55)).collect();
        let idx = index_of(&entries);
        let est = idx.estimate_count(&[Label(1), Label(2), Label(1)], 0.5);
        assert!((est - 20.0).abs() < 1e-9, "est = {est}");
        let exact = idx.count_exact(&[Label(1), Label(2), Label(1)], 0.5);
        assert_eq!(exact, 20);
    }
}
