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

/// Most nodes one [`packed_key`] holds.
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

/// The entries of one `(canonical sequence, probability bucket)`, flat:
/// entry `i` is `nodes[i * stride..(i + 1) * stride]`, `prle[i]`, `prn[i]`,
/// with `stride` the sequence length. Entries keep insertion order.
///
/// An index holds its buckets behind `Arc`, and a bucket's bytes never
/// change once it is shared: an update gives a generation fresh copies of
/// the buckets it changes and shares every other one with the generation
/// before ([`crate::update_index`]). `holds` is what lets it tell the two
/// apart without reading the entries.
#[derive(Clone, Debug, Default)]
pub(crate) struct Bucket {
    pub(crate) nodes: Vec<u32>,
    pub(crate) prle: Vec<f64>,
    pub(crate) prn: Vec<f64>,
    /// Bit `v` is set exactly when node `v` is on some entry; no longer
    /// than the largest such id needs. Built once per bucket when it is
    /// sealed, and kept exact by every update that copies the bucket.
    pub(crate) holds: Vec<u64>,
}

impl Bucket {
    pub(crate) fn len(&self) -> usize {
        self.prle.len()
    }

    /// The entries in order; `stride` is the sequence length.
    pub(crate) fn iter(&self, stride: usize) -> PathMatchesIter<'_> {
        PathMatchesIter {
            nodes: self.nodes.chunks_exact(stride),
            prle: self.prle.iter(),
            prn: self.prn.iter(),
        }
    }

    /// Appends one entry, leaving `holds` to [`Bucket::seal`] or the
    /// caller.
    #[inline]
    pub(crate) fn push(&mut self, nodes: impl IntoIterator<Item = u32>, prle: f64, prn: f64) {
        self.nodes.extend(nodes);
        self.prle.push(prle);
        self.prn.push(prn);
    }

    /// Sets node `v`'s bit in `holds`.
    #[inline]
    pub(crate) fn mark(&mut self, v: u32) {
        let word = (v / 64) as usize;
        if word >= self.holds.len() {
            self.holds.resize(word + 1, 0);
        }
        self.holds[word] |= 1 << (v % 64);
    }

    /// Whether some entry holds a node whose bit is set in `dirty`; every
    /// node past `dirty`'s last word counts as dirty. Reads `holds`, not
    /// the entries.
    pub(crate) fn holds_any(&self, dirty: &[u64]) -> bool {
        self.holds.iter().enumerate().any(|(i, &h)| h & dirty.get(i).copied().unwrap_or(!0) != 0)
    }

    /// This bucket without the entries holding a node `dirty` marks (by
    /// [`Bucket::holds_any`]'s rule, which must hold), in order, `holds`
    /// exact. `dropped` sees each dropped entry's total probability. The
    /// kept entries are copied run by run.
    pub(crate) fn without(
        &self,
        stride: usize,
        dirty: &[u64],
        mut dropped: impl FnMut(f64),
    ) -> Bucket {
        let is_dirty =
            |v: u32| dirty.get((v / 64) as usize).is_none_or(|w| (w >> (v % 64)) & 1 != 0);
        let mut gone: Vec<usize> = Vec::new();
        for (j, &v) in self.nodes.iter().enumerate() {
            if is_dirty(v) && gone.last() != Some(&(j / stride)) {
                gone.push(j / stride);
            }
        }
        debug_assert!(!gone.is_empty(), "`holds` is exact");
        let kept = self.len() - gone.len();
        let mut out = Bucket {
            nodes: Vec::with_capacity(kept * stride),
            prle: Vec::with_capacity(kept),
            prn: Vec::with_capacity(kept),
            holds: vec![0; self.holds.len()],
        };
        let mut from = 0;
        for i in gone.iter().copied().chain([self.len()]) {
            out.nodes.extend_from_slice(&self.nodes[from * stride..i * stride]);
            out.prle.extend_from_slice(&self.prle[from..i]);
            out.prn.extend_from_slice(&self.prn[from..i]);
            if i < self.len() {
                dropped(self.prle[i] * self.prn[i]);
            }
            from = i + 1;
        }
        for &v in &out.nodes {
            out.holds[(v / 64) as usize] |= 1 << (v % 64);
        }
        out.shrink_to_fit();
        out
    }

    /// Builds `holds` from the entries and returns growth slack to the
    /// allocator: once per bucket, when its filling is done.
    pub(crate) fn seal(&mut self) {
        self.holds = Vec::new();
        for i in 0..self.nodes.len() {
            self.mark(self.nodes[i]);
        }
        self.shrink_to_fit();
    }

    /// Returns growth slack, `holds`' trailing empty words included.
    pub(crate) fn shrink_to_fit(&mut self) {
        while self.holds.last() == Some(&0) {
            self.holds.pop();
        }
        self.nodes.shrink_to_fit();
        self.prle.shrink_to_fit();
        self.prn.shrink_to_fit();
        self.holds.shrink_to_fit();
    }

    fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * 4
            + (self.prle.capacity() + self.prn.capacity() + self.holds.capacity()) * 8
    }
}

/// Everything stored under one canonical label sequence.
#[derive(Clone, Debug)]
pub(crate) struct SeqEntries {
    /// One [`Bucket`] per probability bucket, ascending.
    pub(crate) buckets: Vec<Arc<Bucket>>,
    /// `hist[i]`: entries with total probability ≥ `hist_grid[i]`. Kept
    /// current by every insert and removal, so it always equals a recount.
    pub(crate) hist: Vec<u32>,
}

impl SeqEntries {
    pub(crate) fn is_empty(&self) -> bool {
        self.buckets.iter().all(|b| b.len() == 0)
    }

    /// All entries, bucket by bucket; `stride` is the sequence length.
    pub(crate) fn iter(&self, stride: usize) -> impl Iterator<Item = StoredPath<'_>> {
        self.buckets.iter().flat_map(move |b| b.iter(stride))
    }
}

/// Entries being collected for an index, in buckets owned outright: the
/// one place an entry is inserted. [`PathIndex::from_fill`] seals a fill
/// into a new index; [`PathIndex::append`] adds one to the end of an
/// existing index's buckets.
pub(crate) struct Fill {
    config: PathIndexConfig,
    /// Per canonical sequence: its buckets and histogram counts.
    map: FxHashMap<Vec<u16>, (Vec<Bucket>, Vec<u32>)>,
    n_entries: usize,
}

impl Fill {
    pub(crate) fn new(config: PathIndexConfig) -> Self {
        Self { config, map: FxHashMap::default(), n_entries: 0 }
    }

    /// Appends one entry to the bucket of its total probability and counts
    /// it into its sequence's histogram.
    pub(crate) fn insert(
        &mut self,
        canonical: &[u16],
        nodes: impl IntoIterator<Item = u32>,
        prle: f64,
        prn: f64,
    ) {
        let p = prle * prn;
        let bucket = self.config.bucket_of(p);
        if !self.map.contains_key(canonical) {
            let fresh = (
                vec![Bucket::default(); self.config.n_buckets()],
                vec![0; self.config.hist_grid.len()],
            );
            self.map.insert(canonical.to_vec(), fresh);
        }
        let (buckets, hist) = self.map.get_mut(canonical).expect("inserted above");
        let b = &mut buckets[bucket];
        b.push(nodes, prle, prn);
        debug_assert_eq!(b.nodes.len(), b.len() * canonical.len());
        count_hist(hist, &self.config.hist_grid, p, true);
        self.n_entries += 1;
    }
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
    /// Seals `fill` into an index: every bucket gives back its growth
    /// slack, builds its `holds` summary and goes behind an `Arc`.
    pub(crate) fn from_fill(fill: Fill) -> Self {
        let map = fill
            .map
            .into_iter()
            .map(|(seq, (buckets, hist))| {
                let buckets = buckets
                    .into_iter()
                    .map(|mut b| {
                        b.seal();
                        Arc::new(b)
                    })
                    .collect();
                (seq, SeqEntries { buckets, hist })
            })
            .collect();
        Self { config: fill.config, map, n_entries: fill.n_entries }
    }

    /// Appends `fill`'s entries to the end of their buckets, in order,
    /// copying a bucket still shared with another generation first
    /// (copy on write) and keeping its `holds` exact.
    pub(crate) fn append(&mut self, fill: Fill) {
        let n_buckets = self.config.n_buckets();
        for (seq, (buckets, hist)) in fill.map {
            let stride = seq.len();
            let se = self.map.entry(seq).or_insert_with(|| SeqEntries {
                buckets: (0..n_buckets).map(|_| Arc::default()).collect(),
                hist: vec![0; hist.len()],
            });
            for (dst, src) in se.buckets.iter_mut().zip(buckets) {
                if src.len() == 0 {
                    continue;
                }
                let dst = Arc::make_mut(dst);
                dst.nodes.reserve_exact(src.nodes.len());
                dst.prle.reserve_exact(src.len());
                dst.prn.reserve_exact(src.len());
                for e in src.iter(stride) {
                    dst.push(e.nodes.iter().copied(), e.prle, e.prn);
                    e.nodes.iter().for_each(|&v| dst.mark(v));
                }
            }
            for (count, add) in se.hist.iter_mut().zip(hist) {
                *count += add;
            }
        }
        self.n_entries += fill.n_entries;
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

    /// In-memory footprint in bytes: the buckets' heap buffers and node
    /// summaries plus the per-sequence and per-bucket headers (hash-table
    /// slack excluded). A bucket shared with another generation counts in
    /// each.
    pub fn approx_bytes(&self) -> u64 {
        use std::mem::size_of;
        // An `Arc`'s heap block: two counts, then the bucket's header.
        let bucket_block = 2 * size_of::<usize>() + size_of::<Bucket>();
        let mut total = 0usize;
        for (k, v) in &self.map {
            total += size_of::<Vec<u16>>() + k.len() * 2;
            total += size_of::<SeqEntries>() + v.hist.len() * 4;
            for b in &v.buckets {
                total += size_of::<Arc<Bucket>>() + bucket_block + b.heap_bytes();
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
            for b in &se.buckets[start_bucket..] {
                for e in b.iter(canonical.len()) {
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
