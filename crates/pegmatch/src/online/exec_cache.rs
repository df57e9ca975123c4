//! Shape-keyed execution cache: reuse a reduced k-partite graph across
//! repeated-shape query mixes.
//!
//! The plan cache (see [`crate::online::plan`]) only saves planning time;
//! every query still pays retrieval, context pruning, the join and the
//! reduction — and in the sharded deployment a full scatter round trip —
//! even when the serving mix is dominated by isomorphic renumberings of a
//! handful of shapes. This module caches what those queries share *after*
//! all of that: the session base ([`SessionBase`]), a [`KPartiteGraph`]
//! joined and reduced to fixpoint at a **floor threshold**, plus the stage
//! counts of the build that made it. A hit installs the shared graph as
//! the session's base; [`QuerySession::run_at`] then generates from it
//! directly at the floor, or refines a copy with a few incremental
//! reduction rounds above it. A hit touches no source, no index and no
//! scatter.
//!
//! # Soundness of floor-threshold reuse
//!
//! A base reduced at threshold `f` answers every `α ≥ f` bit-identically
//! to a from-scratch run at `α` — the ascending-α reuse top-k refinement
//! is built on ([`QuerySession::run_at`]; pinned by
//! `tests/reduction_frontier_equivalence.rs` and
//! `tests/topk_incremental.rs`). Retrieval, pruning and the join's link
//! test at `f` keep a superset of what they keep at `α`, every vertex the
//! reduction kills at `f` is dead at `α`, and the incremental reduction
//! continues from the converged perception bounds, which stay upper bounds
//! on any extension's probability. Generation then re-checks every match
//! exactly, in the canonical candidate order the base shares with a cold
//! build, so matches, their bits and any `limit` prefix agree.
//!
//! The floor is the query's `α` **quantized down to a power of two**
//! ([`floor_alpha`]) and clamped at the index build threshold `β`: a
//! ladder of nearby thresholds (top-k refinement steps, jittered serving
//! mixes) collapses onto a handful of cache entries, while the clamp keeps
//! a cached retrieval in the same index-vs-enumeration regime as every
//! query it serves.
//!
//! # Admission on second sight
//!
//! A shape seen once is not worth a floor-widened build and the memory to
//! hold it. A miss therefore consults a **doorkeeper** — a fixed array of
//! [`DOORKEEPER_BITS`] bits, one hash per key — before anything is built:
//!
//! * *first sight* (bit clear): the bit is set and the query runs exactly
//!   as the cache-off path does, at its own `α`; nothing is inserted;
//! * *second sight* (bit set): the base is built at the floor, inserted,
//!   and answers the query.
//!
//! The doorkeeper hashes the key **without** its epoch, so after an
//! `update_graph` flush the first query of a known shape re-admits at
//! once. It is cleared whenever half its bits are set, which bounds its
//! false-positive rate; a false positive only admits a shape early.
//!
//! # Keying
//!
//! [`ExecKey`] pins everything the cached base depends on: the graph
//! **epoch** (a server-issued stamp, fresh on every load and every
//! `update_graph`, so unloading or mutating a graph retires its entries
//! without scanning their contents), the **canonical form** of the query
//! shape (labels + edges under the canonical numbering), the
//! decomposition **paths mapped into canonical numbering** (plan-cache
//! eviction could replan a shape differently; two different
//! decompositions must not collide), and the index parameters (`max_len`,
//! `β` bits) plus the floor bits. A base needs *no* renumbering on a hit —
//! entity ids are graph-global, and partition order, vertex order and
//! weight products are functions of the canonical plan.
//!
//! Like the plan cache, the cache is a bounded shared structure: one
//! mutex-guarded map with byte accounting and true-LRU eviction. Values
//! are `Arc`'d so hits clone a pointer under the lock.
//!
//! [`QuerySession::run_at`]: crate::online::QuerySession::run_at

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use graphstore::hash::{FxHashMap, FxHasher};
use graphstore::Label;

use crate::online::kpartite::KPartiteGraph;
use crate::online::session::SessionBase;
use crate::query::{CanonicalForm, QNode};

/// Default byte budget for a server-wide execution cache: 64 MiB.
pub const DEFAULT_EXEC_CACHE_BYTES: usize = 64 << 20;

/// Size of the admission doorkeeper, in bits (8 KiB of memory).
pub const DOORKEEPER_BITS: usize = 1 << 16;

/// Quantizes `alpha` down to the nearest power of two by masking the
/// mantissa (subnormals and zero collapse to `0.0`; exact powers of two —
/// including `1.0` — are their own floor). The result is in `(alpha/2,
/// alpha]`, so a floor retrieval is at most one octave below the query.
pub fn quantize_down(alpha: f64) -> f64 {
    f64::from_bits(alpha.to_bits() & 0x7FF0_0000_0000_0000)
}

/// The floor threshold a query at `alpha` builds (and caches) its base at,
/// for an index built at threshold `beta`.
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

/// Everything a cached base depends on. Two queries build equal keys iff
/// the cached base is (bit-for-bit) the base a cold floor build would
/// produce for both.
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
    /// Bit pattern of the floor threshold the base is reduced at.
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

    /// The doorkeeper bit of this key: a hash of everything but the epoch.
    fn sight_bit(&self) -> usize {
        let mut h = FxHasher::default();
        (&self.labels, &self.edges, &self.paths, self.max_len, self.beta_bits, self.floor_bits)
            .hash(&mut h);
        // Fibonacci-mix so the top bits depend on every input word.
        (h.finish().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - DOORKEEPER_BITS.trailing_zeros()))
            as usize
    }
}

/// A cached base: the reduced graph at the key's floor and the stage
/// counts of its build, shared by every session that hits it.
pub type ExecEntry = Arc<SessionBase>;

/// What a lookup found, and so what the caller builds.
pub enum Lookup {
    /// The cached base for the key.
    Hit(ExecEntry),
    /// First sight of the shape: run at the query's own threshold and
    /// insert nothing.
    FirstSight,
    /// Second sight: build the base at the floor and insert it.
    Admit,
}

/// Heap footprint of a cached base, for budget accounting: its graph's
/// arena capacities ([`KPartiteGraph::heap_bytes`]).
pub fn entry_bytes(kp: &KPartiteGraph) -> usize {
    kp.heap_bytes()
}

struct CachedBase {
    base: ExecEntry,
    bytes: usize,
    last_used: u64,
}

struct ExecCacheInner {
    map: FxHashMap<ExecKey, CachedBase>,
    bytes: usize,
    tick: u64,
    /// One bit per sight hash, `DOORKEEPER_BITS` of them.
    seen: Vec<u64>,
    seen_set: usize,
    hits: u64,
    misses: u64,
    first_sight: u64,
    admitted: u64,
    evictions: u64,
}

impl ExecCacheInner {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Sets `bit`, returning whether it was already set; clears the whole
    /// array once half of it is set.
    fn saw(&mut self, bit: usize) -> bool {
        let (word, mask) = (bit / 64, 1u64 << (bit % 64));
        if self.seen[word] & mask != 0 {
            return true;
        }
        self.seen[word] |= mask;
        self.seen_set += 1;
        if self.seen_set * 2 >= DOORKEEPER_BITS {
            self.seen.fill(0);
            self.seen_set = 0;
        }
        false
    }
}

/// Snapshot of cache counters for the `stats` op and ablations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found no entry (first sights and admissions alike).
    pub misses: u64,
    /// Misses on a shape the doorkeeper had not seen: run uncached.
    pub first_sight: u64,
    /// Bases inserted on a second sight.
    pub admitted: u64,
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

/// Byte-bounded, shape-keyed cache of reduced session bases, admitted on
/// second sight. One instance serves a whole server: entries carry the
/// owning graph's epoch in their key, so unloading a graph invalidates by
/// epoch sweep.
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
                seen: vec![0; DOORKEEPER_BITS / 64],
                seen_set: 0,
                hits: 0,
                misses: 0,
                first_sight: 0,
                admitted: 0,
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

    /// Looks up a base; on a miss, marks the key seen and says whether
    /// this sight admits it. Counts a hit or a miss either way.
    pub fn lookup(&self, key: &ExecKey) -> Lookup {
        let mut inner = self.inner.lock().unwrap();
        let tick = inner.next_tick();
        if let Some(cached) = inner.map.get_mut(key) {
            cached.last_used = tick;
            let base = Arc::clone(&cached.base);
            inner.hits += 1;
            return Lookup::Hit(base);
        }
        inner.misses += 1;
        if inner.saw(key.sight_bit()) {
            Lookup::Admit
        } else {
            inner.first_sight += 1;
            Lookup::FirstSight
        }
    }

    /// Inserts a base, evicting least-recently-used entries until it fits.
    /// Oversized entries (larger than the whole budget) are skipped; a
    /// concurrent insert of the same key is last-write-wins (both writers
    /// built identical bases, so either is correct).
    pub fn insert(&self, key: ExecKey, base: ExecEntry) {
        let bytes = entry_bytes(&base.kp);
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
        inner.admitted += 1;
        inner.map.insert(key, CachedBase { base, bytes, last_used: tick });
    }

    /// Drops every entry stamped with `epoch` — the `unload_graph` and
    /// `update_graph` hook. The doorkeeper keeps its bits.
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
            first_sight: inner.first_sight,
            admitted: inner.admitted,
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
    use crate::online::kpartite::KPartiteWriter;
    use crate::query::QueryGraph;
    use graphstore::EntityId;

    /// A one-partition graph of `n` two-node vertices.
    fn graph_of(n: usize) -> KPartiteGraph {
        let mut w = KPartiteWriter::new(1);
        w.add_partition(&[], 2, n);
        for i in 0..n as u32 {
            w.add_vertex(&[EntityId(i), EntityId(i + 1)], 0.5, 0.5);
        }
        w.finish()
    }

    fn base_of(n: usize) -> ExecEntry {
        Arc::new(SessionBase::new(0.25, graph_of(n), Default::default()))
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

    /// Admits `key` the way a session does: a first and a second sight,
    /// then the insert.
    fn admit(cache: &ExecCache, key: ExecKey, n: usize) {
        assert!(matches!(cache.lookup(&key), Lookup::FirstSight | Lookup::Admit));
        assert!(matches!(cache.lookup(&key), Lookup::Admit));
        cache.insert(key, base_of(n));
    }

    #[test]
    fn entry_bytes_is_the_sum_of_the_graph_arena_capacities() {
        let bytes = entry_bytes(&graph_of(64));
        assert_eq!(bytes, graph_of(64).heap_bytes());
        // 64 more vertices hold, each, an alive flag (1 B), w1, w2 and one
        // perception entry (8 B each) and two 4-byte entity ids; the three
        // bitsets grow one word each. Nothing estimated.
        let per_vertex = 1 + 3 * 8 + 2 * 4;
        assert_eq!(entry_bytes(&graph_of(128)) - bytes, 64 * per_vertex + 3 * 8);
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
    fn the_first_sight_is_not_admitted_and_the_second_is() {
        let labels = |ls: &[u16]| ls.iter().map(|&l| Label(l)).collect::<Vec<_>>();
        // One path shape and a renumbering of it: node i of `q` is node
        // `perm[i]` of `r`.
        let q = QueryGraph::new(labels(&[0, 1, 2]), vec![(0, 1), (1, 2)]).unwrap();
        let r = QueryGraph::new(labels(&[2, 0, 1]), vec![(1, 2), (0, 2)]).unwrap();
        let key_of = |g: &QueryGraph, path: &[QNode]| {
            ExecKey::new(7, &g.canonical_form(), &[path], 2, 0.3, 0.5)
        };
        let (kq, kr) = (key_of(&q, &[0, 1, 2]), key_of(&r, &[1, 2, 0]));
        assert_eq!(kq, kr, "isomorphic renumberings share a key");

        let cache = ExecCache::new(1 << 20);
        assert!(matches!(cache.lookup(&kq), Lookup::FirstSight));
        assert_eq!(cache.stats().entries, 0, "a first sight inserts nothing");
        assert!(matches!(cache.lookup(&kr), Lookup::Admit), "the renumbering is the second sight");
        cache.insert(kr, base_of(4));
        assert!(matches!(cache.lookup(&kq), Lookup::Hit(_)));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.first_sight, s.admitted), (1, 2, 1, 1));
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn an_epoch_bump_drops_entries_but_not_doorkeeper_bits() {
        let cache = ExecCache::new(1 << 20);
        let (e1, e2) = (cache.next_epoch(), cache.next_epoch());
        assert_ne!(e1, e2);
        admit(&cache, key(e1, 0, 0.25), 4);
        admit(&cache, key(e1, 1, 0.25), 4);
        admit(&cache, key(e2, 0, 0.25), 4);
        assert_eq!(cache.epoch_stats(e1).0, 2);
        assert_eq!(cache.epoch_stats(e2).0, 1);
        cache.invalidate_epoch(e1);
        let s = cache.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(cache.epoch_stats(e1), (0, 0));
        assert_eq!(cache.epoch_stats(e2).0, 1);
        assert!(matches!(cache.lookup(&key(e2, 0, 0.25)), Lookup::Hit(_)));
        assert_eq!(s.bytes, cache.epoch_stats(e2).1);
        // The next epoch's first query of a known shape re-admits at once.
        let e3 = cache.next_epoch();
        let first_sight = cache.stats().first_sight;
        assert!(matches!(cache.lookup(&key(e3, 1, 0.25)), Lookup::Admit));
        assert_eq!(cache.stats().first_sight, first_sight);
    }

    #[test]
    fn the_doorkeeper_clears_when_half_its_bits_are_set() {
        let cache = ExecCache::new(1 << 20);
        let probe = key(1, 0, 1.0);
        assert!(matches!(cache.lookup(&probe), Lookup::FirstSight));
        // Every first sight sets one more bit; distinct floors give
        // distinct keys.
        let half = DOORKEEPER_BITS as u64 / 2;
        let mut floor = 0.0;
        let mut sight_until = |first_sights: u64| {
            while cache.stats().first_sight < first_sights {
                floor += 1.0;
                cache.lookup(&key(1, 1, floor));
            }
        };
        sight_until(half - 1);
        assert!(matches!(cache.lookup(&probe), Lookup::Admit), "still remembered");
        sight_until(half);
        assert!(matches!(cache.lookup(&probe), Lookup::FirstSight), "forgotten by the clear");
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        let one = entry_bytes(&graph_of(4));
        // Budget for two entries but not three.
        let cache = ExecCache::new(one * 2 + one / 2);
        admit(&cache, key(1, 0, 0.25), 4);
        admit(&cache, key(1, 1, 0.25), 4);
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().bytes, one * 2);
        // Touch entry 0 so entry 1 is the LRU victim.
        assert!(matches!(cache.lookup(&key(1, 0, 0.25)), Lookup::Hit(_)));
        admit(&cache, key(1, 2, 0.25), 4);
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.bytes, one * 2);
        assert!(matches!(cache.lookup(&key(1, 0, 0.25)), Lookup::Hit(_)), "recently used survived");
        assert!(matches!(cache.lookup(&key(1, 1, 0.25)), Lookup::Admit), "LRU evicted");
        assert!(matches!(cache.lookup(&key(1, 2, 0.25)), Lookup::Hit(_)));
    }

    #[test]
    fn oversized_entries_are_never_admitted() {
        let cache = ExecCache::new(16);
        admit(&cache, key(1, 0, 0.25), 64);
        let s = cache.stats();
        assert_eq!((s.entries, s.bytes, s.evictions, s.admitted), (0, 0, 0, 0));
        assert!(matches!(cache.lookup(&key(1, 0, 0.25)), Lookup::Admit));
    }

    #[test]
    fn reinserting_a_key_replaces_without_double_counting() {
        let cache = ExecCache::new(1 << 20);
        admit(&cache, key(1, 0, 0.25), 4);
        let before = cache.stats().bytes;
        cache.insert(key(1, 0, 0.25), base_of(4));
        let s = cache.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.bytes, before);
    }
}
