//! Shape-keyed execution cache: reuse floor-threshold retrievals across
//! repeated-shape query mixes.
//!
//! The plan cache (see [`crate::online::plan`]) only saves planning time;
//! every query still pays raw retrieval plus context pruning — and in the
//! sharded deployment, a full scatter round trip — even when the serving
//! mix is dominated by isomorphic renumberings of a handful of shapes.
//! This module caches the *execution* artifact those queries share: the
//! post-prune candidate sets of a shape's decomposition paths — flat node
//! arenas with `prle` / `prn` / keep-bound columns
//! ([`CandidateSet`]), about 36 bytes per three-node candidate — retrieved
//! once at a **floor threshold** and re-pruned per hitting query by copying
//! the surviving column slices.
//!
//! # Soundness of floor-threshold reuse
//!
//! Retrieval at threshold `α` is monotone: lowering `α` can only grow the
//! raw candidate set (the index lookup keeps everything with
//! `prle·prn + EPS ≥ α`). Every context-pruning test likewise has the form
//! `q + EPS ≥ α` for an `α`-independent quantity `q`, so each survivor of
//! a prune at the floor carries a **keep-bound** — the minimum of those
//! quantities — that answers the whole predicate at any `α' ≥ floor`
//! ([`crate::online::candidates::bound_keeps`]). A warm hit therefore
//! filters the cached lists with one comparison per candidate, touching
//! neither the index nor the context structures; the existing superset
//! pinning test (`pruning_a_low_threshold_superset_matches_fresh_retrieval`)
//! plus min-monotonicity make the filtered lists bit-identical to a cold
//! retrieval at `α'`.
//!
//! The floor is the query's `α` **quantized down to a power of two**
//! ([`floor_alpha`]) and clamped at the index build threshold `β`: a
//! ladder of nearby thresholds (top-k refinement steps, jittered serving
//! mixes) collapses onto a handful of cache entries, while the clamp keeps
//! a cached retrieval in the same index-vs-enumeration regime as every
//! query it serves.
//!
//! # Keying
//!
//! [`ExecKey`] pins everything retrieval output depends on: the graph
//! **epoch** (a server-issued stamp, fresh on every load and every
//! `update_graph`, so unloading or mutating a graph retires its entries
//! without scanning their contents), the **canonical
//! form** of the query shape (labels + edges under the canonical
//! numbering), the decomposition **paths mapped into canonical
//! numbering** (plan-cache eviction could replan a shape differently; two
//! different decompositions must not collide), and the index parameters
//! (`max_len`, `β` bits) plus the floor bits. Candidates need *no*
//! renumbering on a hit — entity ids are graph-global and path order is a
//! function of the canonical plan — which is why hits are cheap enough to
//! also skip the sharded scatter entirely.
//!
//! Like the plan cache, the cache is a bounded shared structure: one
//! mutex-guarded map with byte accounting and true-LRU eviction. Values
//! are `Arc`'d so hits clone a pointer under the lock and filter outside
//! it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use graphstore::hash::FxHashMap;
use graphstore::Label;

use crate::online::candidates::CandidateSet;
use crate::query::{CanonicalForm, QNode};

/// Default byte budget for a server-wide execution cache: 64 MiB.
pub const DEFAULT_EXEC_CACHE_BYTES: usize = 64 << 20;

/// Quantizes `alpha` down to the nearest power of two by masking the
/// mantissa (subnormals and zero collapse to `0.0`; exact powers of two —
/// including `1.0` — are their own floor). The result is in `(alpha/2,
/// alpha]`, so a floor retrieval is at most one octave below the query.
pub fn quantize_down(alpha: f64) -> f64 {
    f64::from_bits(alpha.to_bits() & 0x7FF0_0000_0000_0000)
}

/// The floor threshold a query at `alpha` retrieves (and caches) at, for
/// an index built at threshold `beta`.
///
/// Non-positive (or NaN) `alpha` floors to `0.0`. Otherwise the floor is
/// [`quantize_down`]`(alpha)`, adjusted to respect the retrieval-regime
/// boundary at `beta`: when the query itself is answered from the index
/// (`alpha + EPS ≥ beta`, mirroring the store's regime test), the floor is
/// clamped up to `beta` — but never above `alpha` itself, which keeps the
/// floor retrieval a superset even when `alpha` sits within EPS below
/// `beta`. When the query falls in the enumeration regime the quantized
/// floor (`≤ alpha < beta`) already shares that regime.
pub fn floor_alpha(alpha: f64, beta: f64) -> f64 {
    if alpha.is_nan() || alpha <= 0.0 {
        return 0.0;
    }
    let q = quantize_down(alpha);
    if alpha + 1e-12 >= beta {
        q.max(beta).min(alpha)
    } else {
        q
    }
}

/// Everything a cached floor retrieval's output depends on. Two queries
/// build equal keys iff the cached candidate lists are (bit-for-bit) the
/// lists a cold floor retrieval would produce for both.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ExecKey {
    /// Server-issued stamp of the loaded graph (0 for unmanaged callers).
    pub epoch: u64,
    /// Canonical node labels of the query shape.
    pub labels: Vec<Label>,
    /// Canonical edge list of the query shape.
    pub edges: Vec<(QNode, QNode)>,
    /// Decomposition paths mapped into canonical numbering, in plan order.
    pub paths: Vec<Vec<QNode>>,
    /// Index `max_len` the plan decomposed against.
    pub max_len: usize,
    /// Bit pattern of the index build threshold `β`.
    pub beta_bits: u64,
    /// Bit pattern of the floor threshold the entry was retrieved at.
    pub floor_bits: u64,
}

impl ExecKey {
    /// Builds the key for a prepared shape: `canon` is the query's
    /// canonical form and `paths` the decomposition paths in *query*
    /// numbering, which are mapped through `canon.perm` here.
    pub fn new(
        epoch: u64,
        canon: &CanonicalForm,
        paths: &[&[QNode]],
        max_len: usize,
        beta: f64,
        floor: f64,
    ) -> Self {
        let mapped =
            paths.iter().map(|p| p.iter().map(|&n| canon.perm[n as usize]).collect()).collect();
        ExecKey {
            epoch,
            labels: canon.labels.clone(),
            edges: canon.edges.clone(),
            paths: mapped,
            max_len,
            beta_bits: beta.to_bits(),
            floor_bits: floor.to_bits(),
        }
    }
}

/// A cached floor retrieval: one `CandidateSet` per decomposition path,
/// in plan order, pruned at the key's floor with keep-bounds populated.
pub type ExecEntry = Arc<Vec<CandidateSet>>;

struct CachedSets {
    sets: ExecEntry,
    bytes: usize,
    last_used: u64,
}

struct ExecCacheInner {
    map: FxHashMap<ExecKey, CachedSets>,
    bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ExecCacheInner {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

/// Snapshot of cache counters for the `stats` op and ablations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a real retrieval.
    pub misses: u64,
    /// Entries evicted to stay inside the byte budget.
    pub evictions: u64,
    /// Live entries.
    pub entries: usize,
    /// Bytes held by live entries ([`entry_bytes`]).
    pub bytes: usize,
    /// Byte budget.
    pub budget: usize,
}

impl ExecCacheStats {
    /// Hit rate over all lookups, 0.0 when none happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Heap footprint of a cached retrieval, for budget accounting: the
/// capacities of every set's candidate columns plus the per-set headers.
pub fn entry_bytes(sets: &[CandidateSet]) -> usize {
    sets.iter().map(|cs| std::mem::size_of::<CandidateSet>() + cs.heap_bytes()).sum()
}

/// Byte-bounded, shape-keyed cache of floor-threshold retrievals. One
/// instance serves a whole server: entries carry the owning graph's epoch
/// in their key, so unloading a graph invalidates by epoch sweep.
pub struct ExecCache {
    inner: Mutex<ExecCacheInner>,
    budget: usize,
    epoch_counter: AtomicU64,
}

impl ExecCache {
    /// Creates a cache holding at most `budget` bytes of entries. Entries
    /// larger than the whole budget are never admitted.
    pub fn new(budget: usize) -> Self {
        ExecCache {
            inner: Mutex::new(ExecCacheInner {
                map: FxHashMap::default(),
                bytes: 0,
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            budget,
            epoch_counter: AtomicU64::new(0),
        }
    }

    /// Issues a fresh epoch stamp for a newly loaded graph. Epochs are
    /// never reused, so entries from an unloaded graph can never serve a
    /// later load even if the sweep were skipped.
    pub fn next_epoch(&self) -> u64 {
        self.epoch_counter.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Looks up a floor retrieval; counts a hit or miss either way.
    pub fn get(&self, key: &ExecKey) -> Option<ExecEntry> {
        let mut inner = self.inner.lock().unwrap();
        let tick = inner.next_tick();
        if let Some(cached) = inner.map.get_mut(key) {
            cached.last_used = tick;
            let sets = Arc::clone(&cached.sets);
            inner.hits += 1;
            Some(sets)
        } else {
            inner.misses += 1;
            None
        }
    }

    /// Inserts a floor retrieval, evicting least-recently-used entries
    /// until it fits. Oversized entries (larger than the whole budget)
    /// are skipped; a concurrent insert of the same key is last-write-wins
    /// (both writers computed identical sets, so either is correct).
    pub fn insert(&self, key: ExecKey, sets: ExecEntry) {
        let bytes = entry_bytes(&sets);
        if bytes > self.budget {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        let tick = inner.next_tick();
        if let Some(old) = inner.map.remove(&key) {
            inner.bytes -= old.bytes;
        }
        while inner.bytes + bytes > self.budget {
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, c)| c.last_used)
                .map(|(k, _)| k.clone())
                .expect("bytes > 0 implies an entry exists");
            let old = inner.map.remove(&victim).expect("victim present");
            inner.bytes -= old.bytes;
            inner.evictions += 1;
        }
        inner.bytes += bytes;
        inner.map.insert(key, CachedSets { sets, bytes, last_used: tick });
    }

    /// Drops every entry stamped with `epoch` — the `unload_graph` and
    /// `update_graph` hook.
    pub fn invalidate_epoch(&self, epoch: u64) {
        let mut inner = self.inner.lock().unwrap();
        let victims: Vec<ExecKey> =
            inner.map.keys().filter(|k| k.epoch == epoch).cloned().collect();
        for k in victims {
            let old = inner.map.remove(&k).expect("key just listed");
            inner.bytes -= old.bytes;
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ExecCacheStats {
        let inner = self.inner.lock().unwrap();
        ExecCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.map.len(),
            bytes: inner.bytes,
            budget: self.budget,
        }
    }

    /// Live `(entries, bytes)` held for one graph epoch, for per-graph
    /// stats display.
    pub fn epoch_stats(&self, epoch: u64) -> (usize, usize) {
        let inner = self.inner.lock().unwrap();
        inner
            .map
            .iter()
            .filter(|(k, _)| k.epoch == epoch)
            .fold((0, 0), |(n, b), (_, c)| (n + 1, b + c.bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathindex::PathMatches;

    fn set_of(n: usize) -> CandidateSet {
        let mut matches = PathMatches::with_capacity(2, n);
        for i in 0..n as u32 {
            matches.push([i, i + 1], 0.5, 0.5);
        }
        CandidateSet { matches, bounds: vec![0.25; n], raw_count: n }
    }

    #[test]
    fn entry_bytes_is_the_sum_of_the_column_capacities() {
        // Two nodes (4 B each), prle, prn and the keep-bound (8 B each) per
        // candidate, nothing estimated: 32 B at stride 2, 36 B at stride 3.
        let header = std::mem::size_of::<CandidateSet>();
        assert_eq!(entry_bytes(&[set_of(10)]), header + 10 * (2 * 4 + 3 * 8));
        assert_eq!(entry_bytes(&[set_of(10), set_of(3)]), 2 * header + 13 * 32);
        // Growth slack is held memory, so it counts.
        let mut slack = set_of(4);
        slack.bounds.reserve_exact(100);
        let cap = slack.bounds.capacity();
        assert_eq!(entry_bytes(std::slice::from_ref(&slack)), header + 4 * 24 + cap * 8);
    }

    fn key(epoch: u64, tag: u16, floor: f64) -> ExecKey {
        ExecKey {
            epoch,
            labels: vec![Label(tag), Label(tag)],
            edges: vec![(0, 1)],
            paths: vec![vec![0, 1]],
            max_len: 2,
            beta_bits: 0.3f64.to_bits(),
            floor_bits: floor.to_bits(),
        }
    }

    #[test]
    fn quantize_down_is_a_power_of_two_floor() {
        assert_eq!(quantize_down(0.5), 0.5);
        assert_eq!(quantize_down(1.0), 1.0);
        assert_eq!(quantize_down(0.75), 0.5);
        assert_eq!(quantize_down(0.9999), 0.5);
        assert_eq!(quantize_down(0.2500001), 0.25);
        assert_eq!(quantize_down(0.25), 0.25);
        assert_eq!(quantize_down(0.0), 0.0);
        assert_eq!(quantize_down(f64::MIN_POSITIVE / 2.0), 0.0); // subnormal
        for alpha in [1e-9, 0.013, 0.3, 0.7, 1.0] {
            let q = quantize_down(alpha);
            assert!(q <= alpha && alpha < 2.0 * q.max(f64::MIN_POSITIVE));
        }
    }

    #[test]
    fn floor_alpha_respects_the_regime_boundary() {
        let beta = 0.3;
        // Index regime: floor clamped up to beta...
        assert_eq!(floor_alpha(0.5, beta), 0.5); // power of two ≥ beta
        assert_eq!(floor_alpha(0.35, beta), beta); // quantized 0.25 < beta
                                                   // ...but never above alpha itself (alpha within EPS below beta).
        let just_below = beta - 1e-13;
        assert!(just_below + 1e-12 >= beta);
        assert_eq!(floor_alpha(just_below, beta), just_below);
        // Enumeration regime: plain quantization, same regime as alpha.
        assert_eq!(floor_alpha(0.1, beta), 0.0625);
        assert!(floor_alpha(0.1, beta) < beta);
        // Degenerate thresholds.
        assert_eq!(floor_alpha(0.0, beta), 0.0);
        assert_eq!(floor_alpha(-1.0, beta), 0.0);
        assert_eq!(floor_alpha(f64::NAN, beta), 0.0);
        // Floors are always in (alpha/2, alpha] ∪ {beta-clamped}.
        for alpha in [0.05, 0.29, 0.3, 0.31, 0.6, 1.0] {
            let f = floor_alpha(alpha, beta);
            assert!(f <= alpha, "floor {f} above alpha {alpha}");
        }
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        let one = entry_bytes(std::slice::from_ref(&set_of(4)));
        // Budget for two entries but not three.
        let cache = ExecCache::new(one * 2 + one / 2);
        cache.insert(key(1, 0, 0.25), Arc::new(vec![set_of(4)]));
        cache.insert(key(1, 1, 0.25), Arc::new(vec![set_of(4)]));
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().bytes, one * 2);
        // Touch entry 0 so entry 1 is the LRU victim.
        assert!(cache.get(&key(1, 0, 0.25)).is_some());
        cache.insert(key(1, 2, 0.25), Arc::new(vec![set_of(4)]));
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.bytes, one * 2);
        assert!(cache.get(&key(1, 0, 0.25)).is_some(), "recently used survived");
        assert!(cache.get(&key(1, 1, 0.25)).is_none(), "LRU evicted");
        assert!(cache.get(&key(1, 2, 0.25)).is_some());
    }

    #[test]
    fn oversized_entries_are_never_admitted() {
        let cache = ExecCache::new(16);
        cache.insert(key(1, 0, 0.25), Arc::new(vec![set_of(64)]));
        let s = cache.stats();
        assert_eq!(s.entries, 0);
        assert_eq!(s.bytes, 0);
        assert_eq!(s.evictions, 0);
    }

    #[test]
    fn epoch_invalidation_drops_only_that_graph() {
        let cache = ExecCache::new(1 << 20);
        let (e1, e2) = (cache.next_epoch(), cache.next_epoch());
        assert_ne!(e1, e2);
        cache.insert(key(e1, 0, 0.25), Arc::new(vec![set_of(4)]));
        cache.insert(key(e1, 1, 0.25), Arc::new(vec![set_of(4)]));
        cache.insert(key(e2, 0, 0.25), Arc::new(vec![set_of(4)]));
        assert_eq!(cache.epoch_stats(e1).0, 2);
        assert_eq!(cache.epoch_stats(e2).0, 1);
        cache.invalidate_epoch(e1);
        let s = cache.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(cache.epoch_stats(e1), (0, 0));
        assert_eq!(cache.epoch_stats(e2).0, 1);
        assert!(cache.get(&key(e1, 0, 0.25)).is_none());
        assert!(cache.get(&key(e2, 0, 0.25)).is_some());
        assert_eq!(s.bytes, cache.epoch_stats(e2).1);
    }

    #[test]
    fn reinserting_a_key_replaces_without_double_counting() {
        let cache = ExecCache::new(1 << 20);
        cache.insert(key(1, 0, 0.25), Arc::new(vec![set_of(4)]));
        let before = cache.stats().bytes;
        cache.insert(key(1, 0, 0.25), Arc::new(vec![set_of(4)]));
        let s = cache.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.bytes, before);
    }
}
