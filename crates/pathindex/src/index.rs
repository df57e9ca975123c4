//! In-memory index structure and lookups.

use crate::histogram::estimate_at;
use graphstore::hash::FxHashMap;
use graphstore::{EntityId, Label};

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

/// A directed path match returned by lookups.
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

/// The entries of one `(canonical sequence, probability bucket)`, flat:
/// entry `i` is `nodes[i * stride..(i + 1) * stride]`, `prle[i]`, `prn[i]`,
/// with `stride` the sequence length. Entries keep insertion order. Three
/// buffers per bucket rather than one allocation per entry is what lets a
/// generation of the index be copied at memcpy speed.
#[derive(Clone, Debug, Default)]
pub(crate) struct Bucket {
    pub(crate) nodes: Vec<u32>,
    pub(crate) prle: Vec<f64>,
    pub(crate) prn: Vec<f64>,
}

impl Bucket {
    pub(crate) fn len(&self) -> usize {
        self.prle.len()
    }

    /// The entries in order; `stride` is the sequence length.
    pub(crate) fn iter(&self, stride: usize) -> impl Iterator<Item = StoredPath<'_>> {
        let probs = self.prle.iter().zip(&self.prn);
        self.nodes.chunks_exact(stride).zip(probs).map(|(nodes, (&prle, &prn))| StoredPath {
            nodes,
            prle,
            prn,
        })
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

/// Everything stored under one canonical label sequence.
#[derive(Clone, Debug)]
pub(crate) struct SeqEntries {
    /// One [`Bucket`] per probability bucket, ascending.
    pub(crate) buckets: Vec<Bucket>,
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

pub(crate) fn canonicalize(seq: &[u16]) -> (Vec<u16>, Orientation) {
    let rev: Vec<u16> = seq.iter().rev().copied().collect();
    match seq.cmp(rev.as_slice()) {
        std::cmp::Ordering::Less => (seq.to_vec(), Orientation::Forward),
        std::cmp::Ordering::Greater => (rev, Orientation::Reverse),
        std::cmp::Ordering::Equal => (seq.to_vec(), Orientation::Palindrome),
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
    let seq: Vec<u16> = labels.iter().map(|l| l.0).collect();
    let (canonical, orient) = canonicalize(&seq);
    (canonical, orient == Orientation::Palindrome)
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
    pub(crate) fn empty(config: PathIndexConfig) -> Self {
        Self { config, map: FxHashMap::default(), n_entries: 0 }
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

    /// In-memory footprint in bytes: the buckets' heap buffers plus the
    /// per-sequence and per-bucket headers (hash-table slack excluded).
    pub fn approx_bytes(&self) -> u64 {
        use std::mem::size_of;
        let mut total = 0usize;
        for (k, v) in &self.map {
            total += size_of::<Vec<u16>>() + k.len() * 2;
            total += size_of::<SeqEntries>() + v.hist.len() * 4;
            for b in &v.buckets {
                total += size_of::<Bucket>() + b.heap_bytes();
            }
        }
        total as u64
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
            let fresh = SeqEntries {
                buckets: vec![Bucket::default(); self.config.n_buckets()],
                hist: vec![0; self.config.hist_grid.len()],
            };
            self.map.insert(canonical.to_vec(), fresh);
        }
        let se = self.map.get_mut(canonical).expect("inserted above");
        let b = &mut se.buckets[bucket];
        b.nodes.extend(nodes);
        debug_assert_eq!(b.nodes.len(), (b.prle.len() + 1) * canonical.len());
        b.prle.push(prle);
        b.prn.push(prn);
        count_hist(&mut se.hist, &self.config.hist_grid, p, true);
        self.n_entries += 1;
    }

    /// Returns the growth slack of every bucket buffer to the allocator.
    pub(crate) fn shrink_to_fit(&mut self) {
        for se in self.map.values_mut() {
            se.buckets.iter_mut().for_each(Bucket::shrink_to_fit);
        }
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
    /// ≥ `min_prob`. (`PIndex(lQ(VP), α)` of the paper.)
    pub fn lookup(&self, labels: &[Label], min_prob: f64) -> Vec<PathMatch> {
        let seq: Vec<u16> = labels.iter().map(|l| l.0).collect();
        let (canonical, orient) = canonicalize(&seq);
        let Some(se) = self.map.get(&canonical) else {
            return Vec::new();
        };
        // Start one bucket early: floating-point probabilities a hair below
        // `min_prob` may land in the previous bucket yet pass the exact
        // (epsilon-tolerant) per-entry filter below.
        let start_bucket = self.config.bucket_of(min_prob).saturating_sub(1);
        let mut out = Vec::new();
        for b in &se.buckets[start_bucket..] {
            for e in b.iter(canonical.len()) {
                if e.prob() + 1e-12 >= min_prob {
                    push_matches(&mut out, orient, e);
                }
            }
        }
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
        let seq: Vec<u16> = labels.iter().map(|l| l.0).collect();
        let (canonical, orient) = canonicalize(&seq);
        let Some(se) = self.map.get(&canonical) else {
            return 0.0;
        };
        estimate_from_counts(
            &self.config.hist_grid,
            &se.hist,
            alpha,
            orient == Orientation::Palindrome,
            labels.len(),
        )
    }
}

/// The directed matches one stored entry answers under `orient`: itself,
/// its reversal, or — palindromic sequences of more than one node — both.
pub(crate) fn push_matches(out: &mut Vec<PathMatch>, orient: Orientation, e: StoredPath<'_>) {
    let forward = || e.nodes.iter().map(|&n| EntityId(n)).collect();
    let reverse = || e.nodes.iter().rev().map(|&n| EntityId(n)).collect();
    let (prle, prn) = (e.prle, e.prn);
    if orient != Orientation::Reverse {
        out.push(PathMatch { nodes: forward(), prle, prn });
    }
    if orient == Orientation::Reverse || (orient == Orientation::Palindrome && e.nodes.len() > 1) {
        out.push(PathMatch { nodes: reverse(), prle, prn });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalization() {
        assert_eq!(canonicalize(&[1, 2, 3]), (vec![1, 2, 3], Orientation::Forward));
        assert_eq!(canonicalize(&[3, 2, 1]), (vec![1, 2, 3], Orientation::Reverse));
        assert_eq!(canonicalize(&[2, 1, 2]), (vec![2, 1, 2], Orientation::Palindrome));
        assert_eq!(canonicalize(&[5]), (vec![5], Orientation::Palindrome));
    }

    #[test]
    fn bucket_math() {
        let cfg = PathIndexConfig { gamma: 0.1, ..Default::default() };
        assert_eq!(cfg.n_buckets(), 11);
        assert_eq!(cfg.bucket_of(0.0), 0);
        assert_eq!(cfg.bucket_of(0.55), 5);
        assert_eq!(cfg.bucket_of(1.0), 10);
    }

    #[test]
    fn insert_lookup_direction_handling() {
        let mut idx = PathIndex::empty(PathIndexConfig::default());
        // Canonical sequence [1,2,3] with a path 10-11-12.
        idx.insert(&[1, 2, 3], [10, 11, 12], 0.8, 1.0);

        let fwd = idx.lookup(&[Label(1), Label(2), Label(3)], 0.5);
        assert_eq!(fwd.len(), 1);
        assert_eq!(fwd[0].nodes, vec![EntityId(10), EntityId(11), EntityId(12)]);

        let rev = idx.lookup(&[Label(3), Label(2), Label(1)], 0.5);
        assert_eq!(rev.len(), 1);
        assert_eq!(rev[0].nodes, vec![EntityId(12), EntityId(11), EntityId(10)]);

        assert!(idx.lookup(&[Label(1), Label(2), Label(3)], 0.9).is_empty());
        assert!(idx.lookup(&[Label(9)], 0.1).is_empty());
    }

    #[test]
    fn palindrome_yields_both_directions() {
        let mut idx = PathIndex::empty(PathIndexConfig::default());
        idx.insert(&[1, 2, 1], [5, 6, 7], 0.9, 1.0);
        let got = idx.lookup(&[Label(1), Label(2), Label(1)], 0.1);
        assert_eq!(got.len(), 2);
        assert_ne!(got[0].nodes, got[1].nodes);
        // Single nodes are not doubled.
        let mut idx2 = PathIndex::empty(PathIndexConfig::default());
        idx2.insert(&[4], [9], 1.0, 1.0);
        assert_eq!(idx2.lookup(&[Label(4)], 0.5).len(), 1);
    }

    #[test]
    fn estimate_uses_histogram_and_palindrome_factor() {
        let mut idx = PathIndex::empty(PathIndexConfig::default());
        for i in 0..10 {
            idx.insert(&[1, 2, 1], [i, i + 100, i + 200], 0.55, 1.0);
        }
        let est = idx.estimate_count(&[Label(1), Label(2), Label(1)], 0.5);
        assert!((est - 20.0).abs() < 1e-9, "est = {est}");
        let exact = idx.count_exact(&[Label(1), Label(2), Label(1)], 0.5);
        assert_eq!(exact, 20);
    }
}
