//! The candidate k-partite graph and joint search-space reduction
//! (Sections 5.2.3–5.2.4).
//!
//! Each partition holds the candidate matches of one decomposition path; a
//! link connects two candidates that satisfy all join predicates, whose
//! combined probability reaches α, and whose references are compatible.
//! Two reductions run to fixpoint:
//!
//! * **reduction by structure** — a candidate must keep at least one live
//!   link into *every* partition its path joins with;
//! * **reduction by upper bounds** — perception-vector message passing: each
//!   vertex tracks, per partition, an upper bound on the `w1` weight of any
//!   compatible candidate there; a vertex dies when
//!   `w2 · ∏ perception < α`.
//!
//! # Layout
//!
//! The graph is stored as flat CSR-style arenas rather than nested `Vec`s:
//! one `u32` link buffer with per-(vertex, slot) offset ranges, flat `f64`
//! weight/perception arrays, and an entity-id slab. A vertex is addressed
//! by its *global id* `gv = parts[pi].base + vi`; its perception row lives
//! at `perception[gv·k .. gv·k + k]`. [`KPartiteWriter`] is the one way to
//! fill the arenas — [`build_kpartite`] and hand-made test graphs both go
//! through it — and [`PartView`]/[`VertView`] are the read API for
//! generation and tests.
//!
//! # Construction
//!
//! [`build_kpartite`] writes each candidate once. The vertex pass copies
//! images and weights into the arenas and looks every label and edge
//! probability of every candidate up exactly once (`PathFactors`); the
//! probe of a joined pair `(i, j)` then groups partition `j` by a packed
//! integer key over the shared nodes' images, walks partition `i` in
//! ascending order, and runs the exact admission test over those factors
//! with no allocation per candidate pair. Admitted pairs therefore come
//! out ascending in both directions and are scattered into the shared link
//! buffer by count → prefix-sum → fill; nothing is sorted, deduplicated or
//! copied a second time.
//!
//! # Frontier
//!
//! Message rounds are Jacobi (each round reads only the previous round's
//! state), and a vertex's proposed update is a *pure* min/max function of
//! its alive neighbors' perception rows. Re-evaluating a vertex whose
//! inputs did not change since its last evaluation therefore emits nothing
//! — so rounds only visit the *active frontier*: vertices marked dirty
//! because an in-neighbor's perception changed last round or a kill
//! removed one of their links. The frontier is seeded with every vertex,
//! making round 1 identical to a full sweep, and the skip rule is bit-exact
//! by purity (see `tests/reduction_frontier_equivalence.rs`); set
//! [`ReduceOptions::use_frontier`] to `false` to force full sweeps.

use crate::online::candidates::CandidateSet;
use crate::online::decompose::{Decomposition, QueryPath};
use crate::query::{QNode, QueryGraph};
use crate::Peg;
use graphstore::hash::FxHashMap;
use graphstore::{EntityId, Label};
use pathindex::{packed_key, PathMatches, KEY_WIDTH};

const EPS: f64 = 1e-12;

/// Flattened per-partition metadata: where this partition's vertices live
/// inside the graph's arenas.
#[derive(Clone, Debug)]
struct PartMeta {
    /// Indices of joined partitions, ascending.
    joined: Vec<usize>,
    /// First global vertex id of this partition.
    base: usize,
    /// Vertex count.
    n: usize,
    /// Nodes per vertex (the path length).
    path_len: usize,
    /// Offset of this partition's entity-id slab in `nodes`.
    nodes_off: usize,
    /// First slot id: slot `(vi, s)` is `slot_off + vi·|joined| + s`.
    slot_off: usize,
}

impl PartMeta {
    fn sid(&self, vi: usize, slot: usize) -> usize {
        self.slot_off + vi * self.joined.len() + slot
    }
}

/// Per-round frontier telemetry: how much work the delta-driven schedule
/// actually did versus the full sweep it replaced.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundFrontier {
    /// Vertices evaluated this round (the frontier size).
    pub evals: usize,
    /// Alive vertices at round start (what a full sweep would evaluate).
    pub alive: usize,
    /// Perception entries tightened this round.
    pub updates: usize,
}

/// Outcome counters of a reduction run.
#[derive(Clone, Debug, Default)]
pub struct ReductionStats {
    /// Vertices removed by reduction by structure.
    pub removed_structure: usize,
    /// Vertices removed by reduction by upper bounds.
    pub removed_upperbound: usize,
    /// Message-passing rounds executed.
    pub rounds: usize,
    /// Vertices actually evaluated across all rounds.
    pub frontier_evals: usize,
    /// Alive vertices a full sweep would have evaluated but the frontier
    /// skipped (`Σ per round: alive − evals`).
    pub full_evals_avoided: usize,
    /// Per-round frontier sizes, in round order.
    pub round_frontiers: Vec<RoundFrontier>,
    /// `log10` of the search-space product after the first structure pass.
    pub log10_after_structure: f64,
    /// `log10` of the final search-space product.
    pub log10_final: f64,
}

/// Reduction configuration.
#[derive(Clone, Copy, Debug)]
pub struct ReduceOptions {
    /// Apply reduction by upper bounds after structure.
    pub use_upperbounds: bool,
    /// Evaluate only the active frontier each round (bit-exact vs the
    /// full sweep; `false` forces full sweeps, as a reference mode).
    pub use_frontier: bool,
    /// Run message passing with partitions distributed over the pool.
    pub parallel: bool,
    /// Pool size for parallel passes (`0` = available parallelism). The
    /// pool is the process-wide persistent one — no threads are spawned
    /// per round (or even per query).
    pub threads: usize,
    /// Safety cap on message-passing rounds per pass.
    pub max_rounds: usize,
}

impl Default for ReduceOptions {
    fn default() -> Self {
        Self {
            use_upperbounds: true,
            use_frontier: true,
            parallel: false,
            threads: 0,
            max_rounds: 32,
        }
    }
}

/// One proposed perception tightening: `verts[vi].perception[entry] = val`.
/// Flat triples keep the per-round output buffers reusable and free of
/// nested allocations.
#[derive(Clone, Copy, Debug)]
struct PerceptionUpdate {
    vi: u32,
    entry: u32,
    val: f64,
}

/// Per-partition round scratch, allocated once per pass and reused across
/// rounds: the update buffer plus the per-entry min/max accumulators.
struct RoundBuf {
    updates: Vec<PerceptionUpdate>,
    evals: usize,
    /// min over joined slots of the per-slot best, per entry.
    cand: Vec<f64>,
    /// max over alive links of `perception[entry]`, per entry.
    best: Vec<f64>,
}

impl RoundBuf {
    fn new(k: usize) -> Self {
        Self { updates: Vec::new(), evals: 0, cand: vec![0.0; k], best: vec![0.0; k] }
    }
}

/// Hands each pool lane a `&mut` to its own (disjoint) slot of a buffer
/// array. `pegpool::for_each` claims every index exactly once, so no two
/// lanes ever alias the same element.
struct SlotWriter<T>(*mut T);

unsafe impl<T: Send> Sync for SlotWriter<T> {}

/// A dense bitset over global vertex ids.
#[derive(Clone, Debug, Default)]
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn new(bits: usize) -> Self {
        Self { words: vec![0u64; bits.div_ceil(64)] }
    }

    fn set(&mut self, i: usize) {
        self.words[i >> 6] |= 1u64 << (i & 63);
    }

    fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Sets bits `0..n` (the container must have been sized for `n`).
    fn set_all(&mut self, n: usize) {
        self.words.fill(!0u64);
        if n & 63 != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << (n & 63)) - 1;
            }
        }
    }

    /// Calls `f` for every set bit in `start..end`, ascending.
    fn for_each_in(&self, start: usize, end: usize, mut f: impl FnMut(usize)) {
        if start >= end {
            return;
        }
        let first = start >> 6;
        let last = (end - 1) >> 6;
        for wi in first..=last {
            let mut word = self.words[wi];
            if wi == first {
                word &= !0u64 << (start & 63);
            }
            if wi == last && end & 63 != 0 {
                word &= (1u64 << (end & 63)) - 1;
            }
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                f((wi << 6) | bit);
                word &= word - 1;
            }
        }
    }
}

/// The candidate k-partite graph (Definition 6), in flat CSR arenas.
#[derive(Clone, Debug)]
pub struct KPartiteGraph {
    /// Partition count.
    k: usize,
    parts: Vec<PartMeta>,
    /// Liveness per global vertex id.
    alive: Vec<bool>,
    /// Alive vertex count per partition (maintained by `kill`).
    alive_n: Vec<usize>,
    /// `w1` per global vertex id.
    w1: Vec<f64>,
    /// `w2` per global vertex id.
    w2: Vec<f64>,
    /// Entity-id slab; vertex `(pi, vi)`'s images are the `path_len` ids
    /// at `nodes_off + vi·path_len`.
    nodes: Vec<EntityId>,
    /// Perception rows: `k` entries per vertex at `gv·k`.
    perception: Vec<f64>,
    /// Flat link buffer: local vertex ids into the slot's joined partition.
    links: Vec<u32>,
    /// CSR offsets over slot ids (`len = total_slots + 1`).
    link_off: Vec<usize>,
    /// Count of *alive* link targets per slot id.
    link_alive: Vec<u32>,
    /// Frontier for the *next* message round: vertices with a changed
    /// input (an in-neighbor's perception, or a link killed).
    msg_dirty: BitSet,
    /// Frontier being accumulated *during* a round's apply phase.
    next_dirty: BitSet,
    /// Vertices whose own upper bound changed since the last prune.
    bound_dirty: BitSet,
    /// Whether the zero-link invariant holds (structure fixpoint reached
    /// and every later kill cascades immediately) — lets later structure
    /// passes skip their scan entirely.
    structure_clean: bool,
}

impl KPartiteGraph {
    /// Partition count.
    pub fn n_partitions(&self) -> usize {
        self.k
    }

    /// Read view over one partition.
    pub fn part(&self, pi: usize) -> PartView<'_> {
        PartView { g: self, pi }
    }

    /// `log10` of the product of alive partition sizes (the paper's search
    /// space measure); `-inf` when a partition is empty.
    pub fn log10_search_space(&self) -> f64 {
        self.alive_n
            .iter()
            .map(|&n| if n == 0 { f64::NEG_INFINITY } else { (n as f64).log10() })
            .sum()
    }

    /// Alive vertex counts per partition.
    pub fn alive_counts(&self) -> Vec<usize> {
        self.alive_n.clone()
    }

    /// Heap bytes held by the graph's arenas, growth slack included: what
    /// keeping this graph alive costs.
    pub fn heap_bytes(&self) -> usize {
        fn cap<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        let parts: usize = self.parts.iter().map(|p| cap(&p.joined)).sum();
        parts
            + cap(&self.parts)
            + cap(&self.alive)
            + cap(&self.alive_n)
            + cap(&self.w1)
            + cap(&self.w2)
            + cap(&self.nodes)
            + cap(&self.perception)
            + cap(&self.links)
            + cap(&self.link_off)
            + cap(&self.link_alive)
            + cap(&self.msg_dirty.words)
            + cap(&self.next_dirty.words)
            + cap(&self.bound_dirty.words)
    }

    /// Runs joint search-space reduction to fixpoint.
    pub fn reduce(&mut self, alpha: f64, opts: &ReduceOptions) -> ReductionStats {
        self.reduce_traced(alpha, opts, &pegtrace::Span::disabled())
    }

    /// [`KPartiteGraph::reduce`], emitting per-round / per-prune children
    /// (frontier size, updates, kills) under `span` when it records.
    pub fn reduce_traced(
        &mut self,
        alpha: f64,
        opts: &ReduceOptions,
        span: &pegtrace::Span,
    ) -> ReductionStats {
        let mut stats = ReductionStats::default();
        self.structure_fixpoint(&mut stats.removed_structure);
        stats.log10_after_structure = self.log10_search_space();
        if opts.use_upperbounds {
            // The first prune of a reduce call re-checks every alive bound:
            // α may differ from whatever threshold this graph last
            // converged at.
            let mut scan_all_bounds = true;
            loop {
                let killed = self.upperbound_pass(alpha, opts, &mut stats, span, scan_all_bounds);
                scan_all_bounds = false;
                stats.removed_upperbound += killed;
                if killed == 0 {
                    break;
                }
                self.structure_fixpoint(&mut stats.removed_structure);
            }
        }
        stats.log10_final = self.log10_search_space();
        stats
    }

    /// Kills vertices lacking a live link to some joined partition, cascading.
    ///
    /// Cascades drain fully inside every kill site (here and the prune in
    /// `upperbound_pass`), so once the first fixpoint is reached no alive
    /// vertex ever holds a zero alive-link count between passes —
    /// `structure_clean` records that and later calls skip the scan.
    fn structure_fixpoint(&mut self, removed: &mut usize) {
        if self.structure_clean {
            return;
        }
        let mut worklist: Vec<(usize, u32)> = Vec::new();
        for (pi, p) in self.parts.iter().enumerate() {
            let ns = p.joined.len();
            for vi in 0..p.n {
                if !self.alive[p.base + vi] {
                    continue;
                }
                let s0 = p.sid(vi, 0);
                if self.link_alive[s0..s0 + ns].contains(&0) {
                    worklist.push((pi, vi as u32));
                }
            }
        }
        while let Some((pi, vi)) = worklist.pop() {
            if !self.alive[self.parts[pi].base + vi as usize] {
                continue;
            }
            self.kill(pi, vi, &mut worklist);
            *removed += 1;
        }
        self.structure_clean = true;
    }

    /// Marks a vertex dead and decrements neighbors' live-link counts,
    /// scheduling any neighbor that drops to zero. Every alive neighbor
    /// joins the message frontier: it just lost an input.
    fn kill(&mut self, pi: usize, vi: u32, worklist: &mut Vec<(usize, u32)>) {
        let vi = vi as usize;
        let gv = self.parts[pi].base + vi;
        self.alive[gv] = false;
        self.alive_n[pi] -= 1;
        let ns = self.parts[pi].joined.len();
        let s0 = self.parts[pi].sid(vi, 0);
        for slot in 0..ns {
            let pj = self.parts[pi].joined[slot];
            let back_slot = self.parts[pj]
                .joined
                .iter()
                .position(|&x| x == pi)
                .expect("join relation must be symmetric");
            let (qbase, qns, qslot_off) =
                (self.parts[pj].base, self.parts[pj].joined.len(), self.parts[pj].slot_off);
            let (lo, hi) = (self.link_off[s0 + slot], self.link_off[s0 + slot + 1]);
            for li in lo..hi {
                let w = self.links[li] as usize;
                let gw = qbase + w;
                if !self.alive[gw] {
                    continue;
                }
                self.msg_dirty.set(gw);
                let sid_back = qslot_off + w * qns + back_slot;
                debug_assert!(self.link_alive[sid_back] > 0);
                self.link_alive[sid_back] -= 1;
                if self.link_alive[sid_back] == 0 {
                    worklist.push((pj, w as u32));
                }
            }
        }
    }

    /// Message passing to fixpoint, then pruning by `w2 · ∏ perception < α`.
    /// Returns the number of vertices killed.
    ///
    /// Rounds are Jacobi: every proposed update of a round reads only the
    /// previous round's state, so the parallel schedule is bit-identical to
    /// the sequential one. Per-partition update buffers are allocated once
    /// per pass and reused across rounds; only *changed* entries are ever
    /// emitted (no per-vertex perception clones). Each round consumes
    /// `msg_dirty` and accumulates `next_dirty` (the readers of every
    /// applied update); the prune consumes `bound_dirty` (the vertices
    /// whose own bound tightened) unless `scan_all_bounds` forces the full
    /// check.
    fn upperbound_pass(
        &mut self,
        alpha: f64,
        opts: &ReduceOptions,
        stats: &mut ReductionStats,
        span: &pegtrace::Span,
        scan_all_bounds: bool,
    ) -> usize {
        let k = self.k;
        let frontier = opts.use_frontier;
        let recording = span.is_recording();
        // `parallel` forces the pooled path even when the pool resolves to
        // one lane (it then runs inline, bit-identically) — so the flag
        // deterministically exercises the parallel implementation.
        let pool = (opts.parallel && k > 1).then(|| pegpool::pool_with(opts.threads));
        let mut bufs: Vec<RoundBuf> = (0..k).map(|_| RoundBuf::new(k)).collect();
        for _ in 0..opts.max_rounds {
            stats.rounds += 1;
            let t0 = recording.then(std::time::Instant::now);
            let alive_now: usize = self.alive_n.iter().sum();
            // Compute phase: disjoint buffers, shared read-only graph.
            match &pool {
                Some(pool) => {
                    let this = &*self;
                    let writer = SlotWriter(bufs.as_mut_ptr());
                    let writer = &writer;
                    pool.for_each(k, &|pi| {
                        // Safety: `for_each` claims each index exactly once,
                        // so lane `pi` is the sole writer of `bufs[pi]`.
                        let buf = unsafe { &mut *writer.0.add(pi) };
                        this.round_for_partition(pi, frontier, buf);
                    });
                }
                None => {
                    for (pi, buf) in bufs.iter_mut().enumerate() {
                        self.round_for_partition(pi, frontier, buf);
                    }
                }
            }
            // Apply phase: sequential, in partition index order — the same
            // deterministic merge at every lane count. Updates for one
            // vertex are contiguous (the compute loop emits per vertex), so
            // reader-marking dedupes on the fly.
            let mut evals_total = 0usize;
            let mut updates_total = 0usize;
            for (pi, buf) in bufs.iter_mut().enumerate() {
                evals_total += std::mem::take(&mut buf.evals);
                updates_total += buf.updates.len();
                let base = self.parts[pi].base;
                let mut last_vi = u32::MAX;
                for &u in &buf.updates {
                    let gv = base + u.vi as usize;
                    self.perception[gv * k + u.entry as usize] = u.val;
                    if u.vi != last_vi {
                        last_vi = u.vi;
                        self.bound_dirty.set(gv);
                        self.mark_readers_dirty(pi, u.vi as usize);
                    }
                }
                buf.updates.clear();
            }
            stats.frontier_evals += evals_total;
            stats.full_evals_avoided += alive_now - evals_total;
            stats.round_frontiers.push(RoundFrontier {
                evals: evals_total,
                alive: alive_now,
                updates: updates_total,
            });
            if let Some(t0) = t0 {
                let child = span.child_done("round", t0.elapsed());
                child.tag("round", stats.rounds);
                child.tag("frontier", evals_total);
                child.tag("alive", alive_now);
                child.tag("updates", updates_total);
            }
            std::mem::swap(&mut self.msg_dirty, &mut self.next_dirty);
            self.next_dirty.clear_all();
            if updates_total == 0 {
                break;
            }
        }
        // Prune. The frontier prune visits `bound_dirty ∩ alive` in
        // ascending (partition, vertex) order — a subsequence of the full
        // scan — and skipped vertices are guaranteed survivors: their bound
        // is unchanged since a prune that already passed them at this α.
        let t0 = recording.then(std::time::Instant::now);
        let mut killed = 0usize;
        let mut scanned = 0usize;
        let mut worklist: Vec<(usize, u32)> = Vec::new();
        if scan_all_bounds || !frontier {
            for pi in 0..k {
                let (base, n) = (self.parts[pi].base, self.parts[pi].n);
                for vi in 0..n {
                    let gv = base + vi;
                    if !self.alive[gv] {
                        continue;
                    }
                    scanned += 1;
                    if self.upper_bound_of(gv) + EPS < alpha {
                        self.kill(pi, vi as u32, &mut worklist);
                        killed += 1;
                    }
                }
            }
        } else {
            let mut cands: Vec<(usize, u32)> = Vec::new();
            for (pi, p) in self.parts.iter().enumerate() {
                let alive = &self.alive;
                self.bound_dirty.for_each_in(p.base, p.base + p.n, |gv| {
                    if alive[gv] {
                        cands.push((pi, (gv - p.base) as u32));
                    }
                });
            }
            scanned = cands.len();
            for (pi, vi) in cands {
                let gv = self.parts[pi].base + vi as usize;
                if self.alive[gv] && self.upper_bound_of(gv) + EPS < alpha {
                    self.kill(pi, vi, &mut worklist);
                    killed += 1;
                }
            }
        }
        self.bound_dirty.clear_all();
        // Cascade structural consequences immediately so counts stay sane.
        while let Some((pj, w)) = worklist.pop() {
            if self.alive[self.parts[pj].base + w as usize] {
                self.kill(pj, w, &mut worklist);
                killed += 1;
            }
        }
        if let Some(t0) = t0 {
            let child = span.child_done("prune", t0.elapsed());
            child.tag("scanned", scanned);
            child.tag("kills", killed);
        }
        killed
    }

    /// The pruning bound of a vertex: `w2 · ∏ perception`.
    fn upper_bound_of(&self, gv: usize) -> f64 {
        let k = self.k;
        self.w2[gv] * self.perception[gv * k..gv * k + k].iter().product::<f64>()
    }

    /// Marks every alive reader of `(pi, vi)`'s perception row — its link
    /// neighbors — into the next round's frontier.
    fn mark_readers_dirty(&mut self, pi: usize, vi: usize) {
        let ns = self.parts[pi].joined.len();
        let s0 = self.parts[pi].sid(vi, 0);
        for slot in 0..ns {
            let qbase = self.parts[self.parts[pi].joined[slot]].base;
            let (lo, hi) = (self.link_off[s0 + slot], self.link_off[s0 + slot + 1]);
            for li in lo..hi {
                let gw = qbase + self.links[li] as usize;
                if self.alive[gw] {
                    self.next_dirty.set(gw);
                }
            }
        }
    }

    /// Proposed perception tightenings for the vertices of partition `pi`
    /// (one Jacobi half-round), appended to `buf`. With `use_frontier`,
    /// only vertices in `msg_dirty` are evaluated — bit-exact because a
    /// vertex with unchanged inputs emits nothing (purity).
    fn round_for_partition(&self, pi: usize, use_frontier: bool, buf: &mut RoundBuf) {
        let p = &self.parts[pi];
        if use_frontier {
            self.msg_dirty.for_each_in(p.base, p.base + p.n, |gv| {
                if self.alive[gv] {
                    self.eval_vertex(pi, gv - p.base, buf);
                }
            });
        } else {
            for vi in 0..p.n {
                if self.alive[p.base + vi] {
                    self.eval_vertex(pi, vi, buf);
                }
            }
        }
    }

    /// One vertex's Jacobi evaluation.
    ///
    /// For entry `e ≠ pi`, a vertex's new bound is the min over its joined
    /// partitions of the max `perception[e]` among its alive links there.
    /// The joined partition `e` itself participates: its vertices' own
    /// entries hold their `w1`, which is exactly the direct-link base case
    /// of the paper's message definition. (An earlier revision carried a
    /// dead `entry == pi` re-check here whose comment suggested skipping
    /// `pj == entry`; that variant would discard the base case and weaken
    /// the bound — see `direct_links_feed_the_perception_bound`.) The
    /// receiver's own entry stays at `w1` — senders never overwrite it.
    ///
    /// All entries accumulate in one sweep over each link list (each alive
    /// neighbor's perception row is read contiguously); per entry the
    /// max/min comparison order matches the link/slot order, so the result
    /// is identical to the per-entry formulation.
    fn eval_vertex(&self, pi: usize, vi: usize, buf: &mut RoundBuf) {
        let RoundBuf { updates, evals, cand, best } = buf;
        *evals += 1;
        let k = self.k;
        let p = &self.parts[pi];
        let gv = p.base + vi;
        let s0 = p.sid(vi, 0);
        cand.fill(f64::INFINITY);
        for (slot, &pj) in p.joined.iter().enumerate() {
            let qbase = self.parts[pj].base;
            best.fill(0.0);
            for &w in &self.links[self.link_off[s0 + slot]..self.link_off[s0 + slot + 1]] {
                let gw = qbase + w as usize;
                if !self.alive[gw] {
                    continue;
                }
                let row = &self.perception[gw * k..gw * k + k];
                for (b, &val) in best.iter_mut().zip(row) {
                    if val > *b {
                        *b = val;
                    }
                }
            }
            for (c, &b) in cand.iter_mut().zip(best.iter()) {
                if b < *c {
                    *c = b;
                }
            }
        }
        let row = &self.perception[gv * k..gv * k + k];
        for (entry, (&candidate, &current)) in cand.iter().zip(row).enumerate() {
            if entry == pi {
                continue; // Own entry stays at w1.
            }
            if candidate.is_finite() && candidate + 1e-15 < current {
                updates.push(PerceptionUpdate {
                    vi: vi as u32,
                    entry: entry as u32,
                    val: candidate,
                });
            }
        }
    }
}

/// Read view over one partition of a [`KPartiteGraph`].
#[derive(Clone, Copy)]
pub struct PartView<'g> {
    g: &'g KPartiteGraph,
    pi: usize,
}

impl<'g> PartView<'g> {
    /// Indices of joined partitions, ascending.
    pub fn joined(&self) -> &'g [usize] {
        &self.g.parts[self.pi].joined
    }

    /// Vertex count (alive and dead).
    pub fn n_verts(&self) -> usize {
        self.g.parts[self.pi].n
    }

    /// Slot of partition `j` within this partition's link lists.
    pub fn slot_of(&self, j: usize) -> Option<usize> {
        self.g.parts[self.pi].joined.iter().position(|&x| x == j)
    }

    /// Read view over one vertex.
    pub fn vert(&self, vi: usize) -> VertView<'g> {
        let p = &self.g.parts[self.pi];
        debug_assert!(vi < p.n);
        VertView { g: self.g, pi: self.pi, vi, gv: p.base + vi }
    }
}

/// Read view over one vertex of a [`KPartiteGraph`].
#[derive(Clone, Copy)]
pub struct VertView<'g> {
    g: &'g KPartiteGraph,
    pi: usize,
    vi: usize,
    gv: usize,
}

impl<'g> VertView<'g> {
    /// Liveness flag.
    pub fn alive(&self) -> bool {
        self.g.alive[self.gv]
    }

    /// Exclusive-coverage weight `w1`.
    pub fn w1(&self) -> f64 {
        self.g.w1[self.gv]
    }

    /// Identity weight `w2 = Prn`.
    pub fn w2(&self) -> f64 {
        self.g.w2[self.gv]
    }

    /// Entity images aligned with the path's query nodes.
    pub fn nodes(&self) -> &'g [EntityId] {
        let p = &self.g.parts[self.pi];
        let off = p.nodes_off + self.vi * p.path_len;
        &self.g.nodes[off..off + p.path_len]
    }

    /// Sorted link list for the given slot (local ids into the joined
    /// partition).
    pub fn links(&self, slot: usize) -> &'g [u32] {
        let sid = self.g.parts[self.pi].sid(self.vi, slot);
        &self.g.links[self.g.link_off[sid]..self.g.link_off[sid + 1]]
    }

    /// Count of *alive* links in the given slot.
    pub fn alive_link_count(&self, slot: usize) -> u32 {
        self.g.link_alive[self.g.parts[self.pi].sid(self.vi, slot)]
    }

    /// Perception vector: per-partition upper bounds on compatible `w1`s.
    pub fn perception(&self) -> &'g [f64] {
        let k = self.g.k;
        &self.g.perception[self.gv * k..self.gv * k + k]
    }

    /// The pruning bound: `w2 · ∏ perception`.
    pub fn upper_bound(&self) -> f64 {
        self.g.upper_bound_of(self.gv)
    }
}

/// Exclusive coverage: assigns every query node and edge to exactly one
/// partition so `∏ w1` over a full match equals `Prle(M)`.
#[derive(Clone, Debug)]
pub struct CoverAssignment {
    /// Per partition: positions (on its path) of owned query nodes.
    pub owned_nodes: Vec<Vec<usize>>,
    /// Per partition: owned path edges as position pairs.
    pub owned_edges: Vec<Vec<(usize, usize)>>,
}

impl CoverAssignment {
    /// First-covering-path assignment over the decomposition.
    pub fn new(query: &QueryGraph, decomp: &Decomposition) -> Self {
        let k = decomp.paths.len();
        let mut node_owner: FxHashMap<QNode, usize> = FxHashMap::default();
        let mut edge_owner: FxHashMap<(QNode, QNode), usize> = FxHashMap::default();
        for (i, p) in decomp.paths.iter().enumerate() {
            for &n in &p.nodes {
                node_owner.entry(n).or_insert(i);
            }
            for e in p.edges() {
                edge_owner.entry(e).or_insert(i);
            }
        }
        debug_assert_eq!(node_owner.len(), query.n_nodes());
        let mut owned_nodes = vec![Vec::new(); k];
        let mut owned_edges = vec![Vec::new(); k];
        for (i, p) in decomp.paths.iter().enumerate() {
            for (pos, &n) in p.nodes.iter().enumerate() {
                if node_owner[&n] == i && !owned_nodes[i].contains(&pos) {
                    owned_nodes[i].push(pos);
                }
            }
            let nodes = &p.nodes;
            for (w_idx, w) in nodes.windows(2).enumerate() {
                let key = (w[0].min(w[1]), w[0].max(w[1]));
                if edge_owner[&key] == i {
                    // A path may traverse the same edge... it cannot (simple
                    // path), so each position pair appears once.
                    owned_edges[i].push((w_idx, w_idx + 1));
                }
            }
        }
        // Deduplicate node ownership: a node occurs once per simple path.
        Self { owned_nodes, owned_edges }
    }
}

/// The one way to fill a [`KPartiteGraph`]'s arenas: partitions in index
/// order, each followed by its vertices, then one link list per joined
/// pair. [`build_kpartite`] drives it from candidate sets; tests drive it
/// by hand. Every vertex starts alive with an all-ones perception row
/// whose own entry is its `w1`.
pub struct KPartiteWriter {
    g: KPartiteGraph,
    /// Link lists per joined pair, held until [`KPartiteWriter::finish`]
    /// knows every slot's size.
    pending: Vec<PairLinks>,
}

/// The links of joined pair `(i, j)`, `i < j`, as `(wi, wj)` local ids,
/// with each partition's slot for the other.
struct PairLinks {
    i: usize,
    j: usize,
    slot_ij: usize,
    slot_ji: usize,
    pairs: Vec<(u32, u32)>,
}

impl KPartiteWriter {
    /// A writer for a graph of `k` partitions.
    pub fn new(k: usize) -> Self {
        let g = KPartiteGraph {
            k,
            parts: Vec::with_capacity(k),
            alive: Vec::new(),
            alive_n: Vec::new(),
            w1: Vec::new(),
            w2: Vec::new(),
            nodes: Vec::new(),
            perception: Vec::new(),
            links: Vec::new(),
            link_off: Vec::new(),
            link_alive: Vec::new(),
            msg_dirty: BitSet::default(),
            next_dirty: BitSet::default(),
            bound_dirty: BitSet::default(),
            structure_clean: false,
        };
        Self { g, pending: Vec::new() }
    }

    /// Opens the next partition: `joined` lists its join partners
    /// ascending, each of its vertices carries `path_len` images, and room
    /// for `n_verts` vertices is reserved.
    pub fn add_partition(&mut self, joined: &[usize], path_len: usize, n_verts: usize) {
        let g = &mut self.g;
        assert!(g.parts.len() < g.k, "more partitions than the writer was sized for");
        let slot_off = g.parts.last().map_or(0, |p| p.sid(p.n, 0));
        g.parts.push(PartMeta {
            joined: joined.to_vec(),
            base: g.alive.len(),
            n: 0,
            path_len,
            nodes_off: g.nodes.len(),
            slot_off,
        });
        g.alive.reserve(n_verts);
        g.w1.reserve(n_verts);
        g.w2.reserve(n_verts);
        g.nodes.reserve(n_verts * path_len);
        g.perception.reserve(n_verts * g.k);
    }

    /// Appends a vertex to the partition opened last; `nodes` are its
    /// entity images, aligned with the path.
    pub fn add_vertex(&mut self, nodes: &[EntityId], w1: f64, w2: f64) {
        let g = &mut self.g;
        let pi = g.parts.len().checked_sub(1).expect("add_partition comes first");
        let p = &mut g.parts[pi];
        assert_eq!(nodes.len(), p.path_len, "a vertex carries one image per path node");
        p.n += 1;
        g.alive.push(true);
        g.w1.push(w1);
        g.w2.push(w2);
        g.nodes.extend_from_slice(nodes);
        let row = g.perception.len();
        g.perception.resize(row + g.k, 1.0);
        g.perception[row + pi] = w1;
    }

    /// Records the links of joined pair `(i, j)`, `i < j`, once per pair:
    /// `(wi, wj)` local ids, ascending lexicographically, no duplicates.
    /// That order is what lets [`KPartiteWriter::finish`] lay both
    /// directions out sorted without sorting.
    pub fn add_links(&mut self, i: usize, j: usize, pairs: Vec<(u32, u32)>) {
        assert!(i < j, "links are recorded from the lower partition");
        let slot = |a: usize, b: usize| self.g.part(a).slot_of(b).expect("partitions must join");
        self.pending.push(PairLinks { i, j, slot_ij: slot(i, j), slot_ji: slot(j, i), pairs });
    }

    /// Scatters the recorded links into the shared buffer (count →
    /// prefix-sum → fill, both directions) and seeds the message frontier
    /// with every vertex, so the first reduction round is a full sweep.
    pub fn finish(self) -> KPartiteGraph {
        let Self { mut g, pending } = self;
        assert_eq!(g.parts.len(), g.k, "every partition must be added");
        let total_slots = g.parts.last().map_or(0, |p| p.sid(p.n, 0));
        let mut link_off = vec![0usize; total_slots + 1];
        for l in &pending {
            let (pi, pj) = (&g.parts[l.i], &g.parts[l.j]);
            for &(wi, wj) in &l.pairs {
                assert!((wi as usize) < pi.n && (wj as usize) < pj.n, "link past a partition");
                link_off[pi.sid(wi as usize, l.slot_ij) + 1] += 1;
                link_off[pj.sid(wj as usize, l.slot_ji) + 1] += 1;
            }
        }
        g.link_alive = link_off[1..].iter().map(|&n| n as u32).collect();
        for s in 0..total_slots {
            link_off[s + 1] += link_off[s];
        }
        let mut cursor = link_off[..total_slots].to_vec();
        let mut links = vec![0u32; link_off[total_slots]];
        for l in &pending {
            let (pi, pj) = (&g.parts[l.i], &g.parts[l.j]);
            for &(wi, wj) in &l.pairs {
                let (sij, sji) = (pi.sid(wi as usize, l.slot_ij), pj.sid(wj as usize, l.slot_ji));
                links[cursor[sij]] = wj;
                cursor[sij] += 1;
                links[cursor[sji]] = wi;
                cursor[sji] += 1;
            }
        }
        debug_assert!(
            (0..total_slots)
                .all(|s| links[link_off[s]..link_off[s + 1]].windows(2).all(|w| w[0] < w[1])),
            "link lists must come out ascending and unique"
        );
        g.links = links;
        g.link_off = link_off;

        let n_verts = g.alive.len();
        g.alive_n = g.parts.iter().map(|p| p.n).collect();
        g.msg_dirty = BitSet::new(n_verts);
        g.msg_dirty.set_all(n_verts);
        g.next_dirty = BitSet::new(n_verts);
        g.bound_dirty = BitSet::new(n_verts);
        g
    }
}

/// What the probability model says about each candidate of one partition,
/// looked up once in the vertex pass and read by `w1` and by every probe
/// the partition takes part in.
struct PathFactors {
    /// Nodes per candidate (the path length).
    len: usize,
    /// `Pr(label)` per (candidate, path position): `n × len`.
    labels: Vec<f64>,
    /// `Pr(edge)` per (candidate, path edge): `n × (len − 1)`.
    edges: Vec<f64>,
    /// Whether the candidate's own images are pairwise distinct and
    /// reference-disjoint.
    compatible: Vec<bool>,
}

impl PathFactors {
    /// Factors of `matches` along a path labelled `labels`, fanned out
    /// over `pool` in order-preserving chunks.
    fn compute(
        peg: &Peg,
        labels: &[Label],
        matches: &PathMatches,
        pool: &pegpool::ThreadPool,
    ) -> Self {
        if pool.lanes() == 1 || matches.len() < 64 {
            return Self::of(peg, labels, matches, 0..matches.len());
        }
        let chunks = pool.chunks(matches.len(), 4);
        let mut pieces = pool
            .map(chunks.len(), |ci| Self::of(peg, labels, matches, chunks[ci].clone()))
            .into_iter();
        let mut all = pieces.next().expect("at least one chunk");
        for piece in pieces {
            all.labels.extend(piece.labels);
            all.edges.extend(piece.edges);
            all.compatible.extend(piece.compatible);
        }
        all
    }

    /// Factors of candidates `range` of `matches`, read off the node arena.
    fn of(
        peg: &Peg,
        labels: &[Label],
        matches: &PathMatches,
        range: std::ops::Range<usize>,
    ) -> Self {
        let (n, len) = (range.len(), labels.len());
        assert_eq!(matches.stride(), len, "a candidate carries one image per path node");
        let mut out = Self {
            len,
            labels: Vec::with_capacity(n * len),
            edges: Vec::with_capacity(n * (len - 1)),
            compatible: Vec::with_capacity(n),
        };
        for v in range {
            let nodes = matches.row(v);
            let image = |pos: usize| EntityId(nodes[pos]);
            out.labels.extend((0..len).map(|a| peg.graph.label_prob(image(a), labels[a])));
            out.edges
                .extend((1..len).map(|b| {
                    peg.graph.edge_prob(image(b - 1), image(b), labels[b - 1], labels[b])
                }));
            out.compatible.push((0..len).all(|a| {
                (a + 1..len)
                    .all(|b| nodes[a] != nodes[b] && peg.graph.refs_disjoint(image(a), image(b)))
            }));
        }
        out
    }

    fn labels_of(&self, v: usize) -> &[f64] {
        &self.labels[v * self.len..(v + 1) * self.len]
    }

    fn edges_of(&self, v: usize) -> &[f64] {
        let per = self.len - 1;
        &self.edges[v * per..(v + 1) * per]
    }

    /// Exclusive-coverage weight of candidate `v`: its owned nodes' label
    /// probabilities, then its owned edges' (each edge `(a, a + 1)`).
    fn w1(&self, v: usize, owned_nodes: &[usize], owned_edges: &[(usize, usize)]) -> f64 {
        let mut w1 = 1.0;
        for &pos in owned_nodes {
            w1 *= self.labels_of(v)[pos];
        }
        for &(a, _) in owned_edges {
            w1 *= self.edges_of(v)[a];
        }
        w1
    }
}

/// The images at `positions` packed into one join key
/// ([`pathindex::packed_key`]). A pair sharing more nodes than
/// [`KEY_WIDTH`] (index paths longer than the serving cap) buckets on the
/// first `KEY_WIDTH` and compares the rest per candidate.
fn join_key(nodes: &[EntityId], positions: &[usize]) -> u128 {
    debug_assert!(positions.len() <= KEY_WIDTH);
    packed_key(positions.iter().map(|&p| nodes[p].0))
}

/// Everything about a joined pair `(i, j)` that no candidate changes,
/// derived once per pair. The union of the two paths is taken in the order
/// the admission product is defined over: path `i`'s nodes, then path
/// `j`'s unseen ones; path `i`'s edges, then path `j`'s unseen ones.
struct PairPlan {
    /// Positions of the shared query nodes on path `i` / path `j`, aligned:
    /// the first `KEY_WIDTH` of them, which the join key packs …
    key_i: Vec<usize>,
    key_j: Vec<usize>,
    /// … and `(position on i, position on j)` of any beyond that.
    key_rest: Vec<(usize, usize)>,
    /// Positions on path `i` of the nodes path `j` does not have.
    free_i: Vec<usize>,
    /// Positions on path `j` of the nodes path `i` does not have.
    extra_j: Vec<usize>,
    /// Edges of path `j` (by first position) that path `i` does not have.
    edges_j: Vec<usize>,
}

impl PairPlan {
    fn new(decomp: &Decomposition, i: usize, j: usize) -> Self {
        let (path_i, path_j) = (&decomp.paths[i], &decomp.paths[j]);
        let (ni, nj) = (&path_i.nodes, &path_j.nodes);
        let shared = decomp.shared_nodes(i, j);
        let on = |path: &QueryPath| -> Vec<usize> {
            shared
                .iter()
                .map(|&n| path.position(n).expect("shared node lies on both paths"))
                .collect()
        };
        let (mut key_i, mut key_j) = (on(path_i), on(path_j));
        let packed = key_i.len().min(KEY_WIDTH);
        let key_rest = key_i.split_off(packed).into_iter().zip(key_j.split_off(packed)).collect();
        let edges_i: Vec<(QNode, QNode)> = path_i.edges().collect();
        Self {
            key_i,
            key_j,
            key_rest,
            free_i: (0..ni.len()).filter(|&p| !nj.contains(&ni[p])).collect(),
            extra_j: (0..nj.len()).filter(|&p| !ni.contains(&nj[p])).collect(),
            edges_j: path_j
                .edges()
                .enumerate()
                .filter(|(_, e)| !edges_i.contains(e))
                .map(|(w, _)| w)
                .collect(),
        }
    }
}

/// The compatible candidates of one partition grouped by join key: bucket
/// CSR over local vertex ids, ascending within each bucket.
struct KeyTable {
    bucket_of: FxHashMap<u128, u32>,
    off: Vec<u32>,
    items: Vec<u32>,
}

impl KeyTable {
    fn build(nodes: &[EntityId], factors: &PathFactors, key_pos: &[usize]) -> Self {
        let mut bucket_of: FxHashMap<u128, u32> = FxHashMap::default();
        let mut off: Vec<u32> = vec![0];
        // Bucket per candidate, in vertex order (`u32::MAX`: left out).
        let mut bucket: Vec<u32> = Vec::with_capacity(factors.compatible.len());
        for (v, &ok) in factors.compatible.iter().enumerate() {
            if !ok {
                bucket.push(u32::MAX);
                continue;
            }
            let key = join_key(&nodes[v * factors.len..(v + 1) * factors.len], key_pos);
            let next = bucket_of.len() as u32;
            let b = *bucket_of.entry(key).or_insert(next);
            if b == next {
                off.push(0);
            }
            off[b as usize + 1] += 1;
            bucket.push(b);
        }
        for b in 1..off.len() {
            off[b] += off[b - 1];
        }
        let mut cursor = off.clone();
        let mut items = vec![0u32; *off.last().expect("offsets start at one entry") as usize];
        for (v, &b) in bucket.iter().enumerate() {
            if b != u32::MAX {
                items[cursor[b as usize] as usize] = v as u32;
                cursor[b as usize] += 1;
            }
        }
        Self { bucket_of, off, items }
    }

    fn n_keys(&self) -> usize {
        self.bucket_of.len()
    }

    fn get(&self, key: u128) -> &[u32] {
        match self.bucket_of.get(&key) {
            Some(&b) => {
                &self.items[self.off[b as usize] as usize..self.off[b as usize + 1] as usize]
            }
            None => &[],
        }
    }
}

/// The probe of one joined pair `(i, j)`: partition `i`'s candidates,
/// ascending, against partition `j`'s key table.
struct Probe<'a> {
    peg: &'a Peg,
    plan: &'a PairPlan,
    table: &'a KeyTable,
    factors_i: &'a PathFactors,
    factors_j: &'a PathFactors,
    /// The two partitions' entity-id slabs.
    nodes_i: &'a [EntityId],
    nodes_j: &'a [EntityId],
    alpha: f64,
}

impl Probe<'_> {
    /// Probes candidates `range` of partition `i`, appending the admitted
    /// `(wi, wj)` in ascending order; returns how many candidate pairs the
    /// admission test saw. The only allocation is the union-image scratch,
    /// once per call.
    fn run(&self, range: std::ops::Range<usize>, out: &mut Vec<(u32, u32)>) -> usize {
        let li = self.factors_i.len;
        let mut images = vec![EntityId(0); li + self.plan.extra_j.len()];
        let mut probed = 0usize;
        for wi in range {
            if !self.factors_i.compatible[wi] {
                continue;
            }
            let ni = &self.nodes_i[wi * li..(wi + 1) * li];
            let bucket = self.table.get(join_key(ni, &self.plan.key_i));
            // Path i's label product opens every pair's `Prle` the same
            // way; take it once per candidate.
            let Some(prefix) = product_nonzero(1.0, self.factors_i.labels_of(wi)) else { continue };
            images[..li].copy_from_slice(ni);
            probed += bucket.len();
            for &wj in bucket {
                if self.admits(wi, wj as usize, prefix, &mut images) {
                    out.push((wi as u32, wj));
                }
            }
        }
        probed
    }

    /// Join-candidate admission test: injectivity, reference compatibility,
    /// and `Pr(Pu1 ∘ Pu2) ≥ α` on the joined subgraph. `images` holds
    /// candidate `wi`'s images already, `prefix` its label product, and
    /// both candidates are compatible in themselves — which leaves the
    /// cross pairs, and the rest of the product in its defined order:
    /// `j`'s unseen labels, `i`'s edges, `j`'s unseen edges, then `Prn`
    /// of the union.
    fn admits(&self, wi: usize, wj: usize, prefix: f64, images: &mut [EntityId]) -> bool {
        let (plan, peg) = (self.plan, self.peg);
        let lj = self.factors_j.len;
        let nj = &self.nodes_j[wj * lj..(wj + 1) * lj];
        let (ni, extra) = images.split_at_mut(self.factors_i.len);
        if plan.key_rest.iter().any(|&(a, b)| ni[a] != nj[b]) {
            return false; // Join predicate violated.
        }
        for (image, &b) in extra.iter_mut().zip(&plan.extra_j) {
            *image = nj[b];
        }
        for &a in &plan.free_i {
            for &eb in extra.iter() {
                if ni[a] == eb || !peg.graph.refs_disjoint(ni[a], eb) {
                    return false;
                }
            }
        }
        let (labels_j, edges_j) = (self.factors_j.labels_of(wj), self.factors_j.edges_of(wj));
        let mut prle = prefix;
        for &b in &plan.extra_j {
            prle *= labels_j[b];
            if prle == 0.0 {
                return false;
            }
        }
        let Some(mut prle) = product_nonzero(prle, self.factors_i.edges_of(wi)) else {
            return false;
        };
        for &w in &plan.edges_j {
            prle *= edges_j[w];
            if prle == 0.0 {
                return false;
            }
        }
        prle * peg.prn(images) + EPS >= self.alpha
    }
}

/// `acc · ∏ factors`, left to right; `None` as soon as it reaches zero.
fn product_nonzero(mut acc: f64, factors: &[f64]) -> Option<f64> {
    for &f in factors {
        acc *= f;
        if acc == 0.0 {
            return None;
        }
    }
    Some(acc)
}

/// Builds the candidate k-partite graph: vertices from `candidate_sets`,
/// links from join-candidate computation (a key table per joined pair,
/// Section 5.2.3), written straight into the arenas.
///
/// The vertex pass and the per-pair probe (which carries the admission
/// test, the hot part on high-candidate queries) fan out over `pool` in
/// order-preserving chunks reassembled in index order, so the graph is
/// byte-identical to the sequential build at any lane count.
pub fn build_kpartite(
    peg: &Peg,
    query: &QueryGraph,
    decomp: &Decomposition,
    candidate_sets: &[CandidateSet],
    alpha: f64,
    pool: &pegpool::ThreadPool,
) -> KPartiteGraph {
    let span = pegtrace::Span::disabled();
    build_kpartite_traced(peg, query, decomp, candidate_sets, alpha, pool, &span)
}

/// [`build_kpartite`], emitting a `vertices` child and one `pair` child
/// per joined pair (tags `i`, `j`, `keys`, `probed`, `links`) under `span`
/// when it records.
pub fn build_kpartite_traced(
    peg: &Peg,
    query: &QueryGraph,
    decomp: &Decomposition,
    candidate_sets: &[CandidateSet],
    alpha: f64,
    pool: &pegpool::ThreadPool,
    span: &pegtrace::Span,
) -> KPartiteGraph {
    let k = decomp.paths.len();
    let cover = CoverAssignment::new(query, decomp);

    let child = span.child("vertices");
    let mut writer = KPartiteWriter::new(k);
    let mut factors: Vec<PathFactors> = Vec::with_capacity(k);
    for (i, path) in decomp.paths.iter().enumerate() {
        let matches = &candidate_sets[i].matches;
        let f = PathFactors::compute(peg, &path.labels(query), matches, pool);
        writer.add_partition(&decomp.joins[i], path.nodes.len(), matches.len());
        let mut images: Vec<EntityId> = Vec::with_capacity(path.nodes.len());
        for (v, pm) in matches.iter().enumerate() {
            let w1 = f.w1(v, &cover.owned_nodes[i], &cover.owned_edges[i]);
            images.clear();
            images.extend(pm.nodes.iter().map(|&n| EntityId(n)));
            writer.add_vertex(&images, w1, pm.prn);
        }
        factors.push(f);
    }
    child.tag("n", writer.g.alive.len());
    drop(child);

    for i in 0..k {
        for &j in decomp.joins[i].iter().filter(|&&j| j > i) {
            let child = span.child("pair");
            let plan = PairPlan::new(decomp, i, j);
            let g = &writer.g;
            let slab = |p: &PartMeta| &g.nodes[p.nodes_off..p.nodes_off + p.n * p.path_len];
            let (nodes_i, nodes_j) = (slab(&g.parts[i]), slab(&g.parts[j]));
            let table = KeyTable::build(nodes_j, &factors[j], &plan.key_j);
            let probe = Probe {
                peg,
                plan: &plan,
                table: &table,
                factors_i: &factors[i],
                factors_j: &factors[j],
                nodes_i,
                nodes_j,
                alpha,
            };
            let n_i = g.parts[i].n;
            let mut pairs: Vec<(u32, u32)> = Vec::new();
            let probed = if pool.lanes() > 1 && n_i >= 64 {
                let chunks = pool.chunks(n_i, 4);
                let pieces = pool.map(chunks.len(), |ci| {
                    let mut out = Vec::new();
                    let probed = probe.run(chunks[ci].clone(), &mut out);
                    (out, probed)
                });
                pieces.into_iter().fold(0, |probed, (out, n)| {
                    pairs.extend(out);
                    probed + n
                })
            } else {
                probe.run(0..n_i, &mut pairs)
            };
            child.tag("i", i);
            child.tag("j", j);
            child.tag("keys", table.n_keys());
            child.tag("probed", probed);
            child.tag("links", pairs.len());
            writer.add_links(i, j, pairs);
        }
    }
    writer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::peg::{figure1_refgraph, PegBuilder};
    use crate::offline::{OfflineIndex, OfflineOptions};
    use crate::online::candidates::{retrieve_candidates, PathStats};
    use crate::online::decompose::{decompose, DecompStrategy};
    use graphstore::dist::{EdgeProbability, LabelDist};
    use graphstore::Label;

    /// Builds the k-partite graph for the Figure-1 (r,a,i) query decomposed
    /// into two single-edge paths (forced by max_len = 1).
    fn setup(alpha: f64) -> (Peg, KPartiteGraph, Decomposition) {
        let peg = PegBuilder::new().build(&figure1_refgraph()).unwrap();
        let idx = OfflineIndex::build(&peg, &OfflineOptions::with_len_and_beta(1, 0.01)).unwrap();
        let (a, r, i) = (Label(0), Label(1), Label(2));
        let q = crate::query::QueryGraph::path(&[r, a, i]).unwrap();
        let d = decompose(&q, 1, &|_| 1.0, DecompStrategy::CostBased).unwrap();
        assert_eq!(d.paths.len(), 2);
        let pool = pegpool::pool_with(1);
        let sets = retrieve(&peg, &idx, &q, &d, alpha);
        let kp = build_kpartite(&peg, &q, &d, &sets, alpha, &pool);
        (peg, kp, d)
    }

    #[test]
    fn links_respect_join_predicates() {
        let (_peg, kp, d) = setup(0.05);
        // Both partitions share exactly query node 1 (the `a` center).
        assert_eq!(d.shared.len(), 1);
        for pi in 0..kp.n_partitions() {
            let p = kp.part(pi);
            for vi in 0..p.n_verts() {
                let v = p.vert(vi);
                for (slot, &pj) in p.joined().iter().enumerate() {
                    let q = kp.part(pj);
                    for &w in v.links(slot) {
                        let wv = q.vert(w as usize);
                        // Shared node position: find it and compare images.
                        let shared = d.shared_nodes(pi, pj);
                        for &sn in shared {
                            let a = v.nodes()[d.paths[pi].position(sn).unwrap()];
                            let b = wv.nodes()[d.paths[pj].position(sn).unwrap()];
                            assert_eq!(a, b);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn structure_reduction_kills_linkless() {
        let (_peg, mut kp, _d) = setup(0.05);
        let before: usize = kp.alive_counts().iter().sum();
        let stats =
            kp.reduce(0.05, &ReduceOptions { use_upperbounds: false, ..Default::default() });
        let after: usize = kp.alive_counts().iter().sum();
        assert_eq!(before - after, stats.removed_structure);
        // Every survivor keeps a link everywhere it must.
        for pi in 0..kp.n_partitions() {
            let p = kp.part(pi);
            for vi in 0..p.n_verts() {
                let v = p.vert(vi);
                if !v.alive() {
                    continue;
                }
                for slot in 0..p.joined().len() {
                    assert!(v.alive_link_count(slot) > 0);
                }
            }
        }
    }

    #[test]
    fn upperbound_reduction_tightens_more_with_high_alpha() {
        let (_peg, mut kp_low, _) = setup(0.05);
        let (_peg2, mut kp_high, _) = setup(0.05);
        let low = kp_low.reduce(0.05, &ReduceOptions::default());
        // Reduce the *same* initial graph with a stricter threshold.
        let high = kp_high.reduce(0.2, &ReduceOptions::default());
        let alive_low: usize = kp_low.alive_counts().iter().sum();
        let alive_high: usize = kp_high.alive_counts().iter().sum();
        assert!(alive_high <= alive_low);
        assert!(
            high.removed_upperbound + high.removed_structure
                >= low.removed_upperbound + low.removed_structure
        );
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let peg = PegBuilder::new().build(&figure1_refgraph()).unwrap();
        let idx = OfflineIndex::build(&peg, &OfflineOptions::with_len_and_beta(1, 0.01)).unwrap();
        let (a, r, i) = (Label(0), Label(1), Label(2));
        let q = crate::query::QueryGraph::path(&[r, a, i]).unwrap();
        let d = decompose(&q, 1, &|_| 1.0, DecompStrategy::CostBased).unwrap();
        let seq_pool = pegpool::pool_with(1);
        // Tile the figure-1 candidates past the chunking threshold (64) so
        // the pooled vertex-build and probe branches — which this test
        // exists to cover — actually execute.
        let sets: Vec<CandidateSet> = retrieve(&peg, &idx, &q, &d, 0.01)
            .into_iter()
            .map(|cs| {
                assert!(!cs.matches.is_empty());
                let tiled: Vec<u32> = (0..100).map(|i| (i % cs.matches.len()) as u32).collect();
                CandidateSet { matches: cs.matches.gather(&tiled), raw_count: cs.raw_count }
            })
            .collect();
        assert!(sets.iter().all(|cs| cs.matches.len() >= 64));
        let seq = build_kpartite(&peg, &q, &d, &sets, 0.01, &seq_pool);
        for threads in [2usize, 4] {
            let pool = pegpool::pool_with(threads);
            let par = build_kpartite(&peg, &q, &d, &sets, 0.01, &pool);
            assert_eq!(seq.n_partitions(), par.n_partitions());
            for pi in 0..seq.n_partitions() {
                let (p, q2) = (seq.part(pi), par.part(pi));
                assert_eq!(p.joined(), q2.joined());
                assert_eq!(p.n_verts(), q2.n_verts());
                for vi in 0..p.n_verts() {
                    let (x, y) = (p.vert(vi), q2.vert(vi));
                    assert_eq!(x.nodes(), y.nodes());
                    assert_eq!(x.w1().to_bits(), y.w1().to_bits(), "threads={threads}");
                    assert_eq!(x.w2().to_bits(), y.w2().to_bits());
                    for slot in 0..p.joined().len() {
                        assert_eq!(x.links(slot), y.links(slot));
                        assert_eq!(x.alive_link_count(slot), y.alive_link_count(slot));
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_reduction_matches_sequential() {
        for threads in [0usize, 2, 4] {
            let (_p1, mut seq, _) = setup(0.05);
            let (_p2, mut par, _) = setup(0.05);
            let s1 = seq.reduce(0.1, &ReduceOptions { parallel: false, ..Default::default() });
            let s2 =
                par.reduce(0.1, &ReduceOptions { parallel: true, threads, ..Default::default() });
            assert_eq!(seq.alive_counts(), par.alive_counts());
            assert_eq!(s1.removed_structure, s2.removed_structure);
            assert_eq!(s1.removed_upperbound, s2.removed_upperbound);
            assert_eq!(s1.rounds, s2.rounds);
            assert_eq!(s1.frontier_evals, s2.frontier_evals);
            assert_eq!(s1.full_evals_avoided, s2.full_evals_avoided);
            for pi in 0..seq.n_partitions() {
                let (p, q) = (seq.part(pi), par.part(pi));
                for vi in 0..p.n_verts() {
                    let (a, b) = (p.vert(vi), q.vert(vi));
                    assert_eq!(a.alive(), b.alive());
                    for (x, y) in a.perception().iter().zip(b.perception()) {
                        assert!((x - y).abs() < 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn frontier_reduction_matches_full_sweep_bitwise() {
        for alpha in [0.02, 0.1, 0.3] {
            let (_p1, mut frontier, _) = setup(0.02);
            let (_p2, mut full, _) = setup(0.02);
            let sf =
                frontier.reduce(alpha, &ReduceOptions { use_frontier: true, ..Default::default() });
            let sv =
                full.reduce(alpha, &ReduceOptions { use_frontier: false, ..Default::default() });
            assert_eq!(sf.rounds, sv.rounds, "alpha={alpha}");
            assert_eq!(sf.removed_structure, sv.removed_structure);
            assert_eq!(sf.removed_upperbound, sv.removed_upperbound);
            assert_eq!(frontier.alive_counts(), full.alive_counts());
            // The frontier never does MORE work than the sweep, and both
            // report per-round telemetry for every round.
            assert!(sf.frontier_evals <= sv.frontier_evals);
            assert_eq!(sf.round_frontiers.len(), sf.rounds);
            assert_eq!(sv.round_frontiers.len(), sv.rounds);
            assert!(sv.full_evals_avoided == 0, "full sweep avoids nothing");
            for pi in 0..frontier.n_partitions() {
                let (p, q) = (frontier.part(pi), full.part(pi));
                for vi in 0..p.n_verts() {
                    let (a, b) = (p.vert(vi), q.vert(vi));
                    assert_eq!(a.alive(), b.alive());
                    for (x, y) in a.perception().iter().zip(b.perception()) {
                        assert_eq!(x.to_bits(), y.to_bits(), "alpha={alpha} pi={pi} vi={vi}");
                    }
                }
            }
        }
    }

    /// A two-partition graph where each partition's only join partner is
    /// the other one. A vertex `A` with `w1 = 1` links only to a weak
    /// vertex `B` (`w1 = 0.3`), so `A`'s perception of partition 1 must
    /// tighten to exactly `B.w1` via the *direct* link — the `pj == entry`
    /// message the dead guard's comment would have skipped. Under that
    /// (incorrect) skip-variant no message about partition 1 could ever
    /// reach `A` (partition 1 is its only sender), perception would stay
    /// at 1.0, and the α = 0.5 prune below would not fire.
    fn two_partition_chain() -> KPartiteGraph {
        let mut w = KPartiteWriter::new(2);
        w.add_partition(&[1], 1, 1);
        w.add_vertex(&[EntityId(0)], 1.0, 1.0);
        w.add_partition(&[0], 1, 1);
        w.add_vertex(&[EntityId(1)], 0.3, 1.0);
        w.add_links(0, 1, vec![(0, 0)]);
        w.finish()
    }

    #[test]
    fn direct_links_feed_the_perception_bound() {
        // At a permissive threshold nothing dies, exposing the fixpoint
        // perceptions: A learned B's w1 through the direct link.
        let mut kp = two_partition_chain();
        let stats = kp.reduce(0.1, &ReduceOptions::default());
        assert_eq!(stats.removed_structure + stats.removed_upperbound, 0);
        let a = kp.part(0).vert(0);
        assert!((a.perception()[1] - 0.3).abs() < 1e-12, "direct-link base case must propagate");
        assert!((a.upper_bound() - 0.3).abs() < 1e-12);

        // At α = 0.5 the tightened bound prunes A (and B cascades away).
        let mut kp = two_partition_chain();
        let stats = kp.reduce(0.5, &ReduceOptions::default());
        assert!(stats.removed_upperbound >= 1, "upper-bound prune must fire: {stats:?}");
        assert!(kp.alive_counts().iter().all(|&n| n == 0));
    }

    #[test]
    fn bitset_ranges_and_seeding() {
        let mut b = BitSet::new(130);
        b.set_all(130);
        let mut seen = Vec::new();
        b.for_each_in(60, 70, |i| seen.push(i));
        assert_eq!(seen, (60..70).collect::<Vec<_>>());
        b.clear_all();
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(129);
        let mut seen = Vec::new();
        b.for_each_in(0, 130, |i| seen.push(i));
        assert_eq!(seen, vec![0, 63, 64, 129]);
        let mut seen = Vec::new();
        b.for_each_in(64, 129, |i| seen.push(i));
        assert_eq!(seen, vec![64]);
        let mut seen = Vec::new();
        b.for_each_in(130, 130, |i| seen.push(i));
        assert!(seen.is_empty());
    }

    #[test]
    fn cover_assignment_partitions_everything_once() {
        let peg = PegBuilder::new().build(&figure1_refgraph()).unwrap();
        let _ = peg;
        let (a, r, i) = (Label(0), Label(1), Label(2));
        let q = crate::query::QueryGraph::path(&[r, a, i]).unwrap();
        let d = decompose(&q, 1, &|_| 1.0, DecompStrategy::CostBased).unwrap();
        let cover = CoverAssignment::new(&q, &d);
        let total_nodes: usize = cover.owned_nodes.iter().map(|v| v.len()).sum();
        let total_edges: usize = cover.owned_edges.iter().map(|v| v.len()).sum();
        assert_eq!(total_nodes, q.n_nodes());
        assert_eq!(total_edges, q.n_edges());
    }

    /// The nested builder `build_kpartite` replaced, kept as its oracle:
    /// one heap-allocated `Vert` per candidate, a `Vec`-keyed lookup table
    /// per joined pair, an admission test that re-derives the union
    /// mapping and edge list for every candidate pair, and a final flatten
    /// that sorts and deduplicates every link list into the arenas.
    mod reference {
        use super::super::*;
        use std::collections::HashMap;

        struct Vert {
            nodes: Vec<EntityId>,
            w1: f64,
            w2: f64,
            links: Vec<Vec<u32>>,
            perception: Vec<f64>,
        }

        struct Partition {
            joined: Vec<usize>,
            path_len: usize,
            verts: Vec<Vert>,
        }

        fn from_partitions(mut partitions: Vec<Partition>) -> KPartiteGraph {
            let k = partitions.len();
            for p in &mut partitions {
                for v in &mut p.verts {
                    for l in &mut v.links {
                        l.sort_unstable();
                        l.dedup();
                    }
                }
            }
            let mut parts: Vec<PartMeta> = Vec::with_capacity(k);
            let (mut base, mut nodes_off, mut slot_off) = (0usize, 0usize, 0usize);
            for p in &partitions {
                parts.push(PartMeta {
                    joined: p.joined.clone(),
                    base,
                    n: p.verts.len(),
                    path_len: p.path_len,
                    nodes_off,
                    slot_off,
                });
                base += p.verts.len();
                nodes_off += p.verts.len() * p.path_len;
                slot_off += p.verts.len() * p.joined.len();
            }
            let (n_verts, total_slots) = (base, slot_off);
            let (mut w1, mut w2, mut nodes) = (Vec::new(), Vec::new(), Vec::new());
            let (mut perception, mut links) = (Vec::new(), Vec::new());
            let mut link_off = vec![0usize];
            for p in &partitions {
                for v in &p.verts {
                    assert_eq!(v.perception.len(), k);
                    w1.push(v.w1);
                    w2.push(v.w2);
                    nodes.extend_from_slice(&v.nodes);
                    perception.extend_from_slice(&v.perception);
                    for l in &v.links {
                        links.extend_from_slice(l);
                        link_off.push(links.len());
                    }
                }
            }
            assert_eq!(link_off.len(), total_slots + 1);
            let link_alive = link_off.windows(2).map(|w| (w[1] - w[0]) as u32).collect();
            let mut msg_dirty = BitSet::new(n_verts);
            msg_dirty.set_all(n_verts);
            KPartiteGraph {
                k,
                alive_n: parts.iter().map(|p| p.n).collect(),
                parts,
                alive: vec![true; n_verts],
                w1,
                w2,
                nodes,
                perception,
                links,
                link_off,
                link_alive,
                msg_dirty,
                next_dirty: BitSet::new(n_verts),
                bound_dirty: BitSet::new(n_verts),
                structure_clean: false,
            }
        }

        pub fn reference_build(
            peg: &Peg,
            query: &QueryGraph,
            decomp: &Decomposition,
            candidate_sets: &[CandidateSet],
            alpha: f64,
        ) -> KPartiteGraph {
            let k = decomp.paths.len();
            let cover = CoverAssignment::new(query, decomp);
            let mut partitions: Vec<Partition> = Vec::with_capacity(k);
            for i in 0..k {
                let joined = decomp.joins[i].clone();
                let path = &decomp.paths[i];
                let make_vert = |pm: pathindex::StoredPath<'_>| {
                    let nodes: Vec<EntityId> = pm.nodes.iter().map(|&n| EntityId(n)).collect();
                    let mut w1 = 1.0;
                    for &pos in &cover.owned_nodes[i] {
                        w1 *= peg.graph.label_prob(nodes[pos], query.label(path.nodes[pos]));
                    }
                    for &(a, b) in &cover.owned_edges[i] {
                        w1 *= peg.graph.edge_prob(
                            nodes[a],
                            nodes[b],
                            query.label(path.nodes[a]),
                            query.label(path.nodes[b]),
                        );
                    }
                    let mut perception = vec![1.0; k];
                    perception[i] = w1;
                    Vert {
                        nodes,
                        w1,
                        w2: pm.prn,
                        links: vec![Vec::new(); joined.len()],
                        perception,
                    }
                };
                let verts = candidate_sets[i].matches.iter().map(make_vert).collect();
                partitions.push(Partition { joined, path_len: path.nodes.len(), verts });
            }
            for i in 0..k {
                for &j in &decomp.joins[i] {
                    if j < i {
                        continue;
                    }
                    let shared = decomp.shared_nodes(i, j);
                    let pos_i: Vec<usize> =
                        shared.iter().map(|&n| decomp.paths[i].position(n).unwrap()).collect();
                    let pos_j: Vec<usize> =
                        shared.iter().map(|&n| decomp.paths[j].position(n).unwrap()).collect();
                    let mut table: HashMap<Vec<u32>, Vec<u32>> = HashMap::new();
                    for (wj, v) in partitions[j].verts.iter().enumerate() {
                        let key: Vec<u32> = pos_j.iter().map(|&p| v.nodes[p].0).collect();
                        table.entry(key).or_default().push(wj as u32);
                    }
                    let slot_ij = partitions[i].joined.iter().position(|&x| x == j).unwrap();
                    let slot_ji = partitions[j].joined.iter().position(|&x| x == i).unwrap();
                    let mut new_links: Vec<(u32, u32)> = Vec::new();
                    for (wi, v) in partitions[i].verts.iter().enumerate() {
                        let key: Vec<u32> = pos_i.iter().map(|&p| v.nodes[p].0).collect();
                        let Some(buddies) = table.get(&key) else { continue };
                        for &wj in buddies {
                            let w = &partitions[j].verts[wj as usize];
                            if joined_pair_ok(peg, query, decomp, i, j, &v.nodes, &w.nodes, alpha) {
                                new_links.push((wi as u32, wj));
                            }
                        }
                    }
                    for (wi, wj) in new_links {
                        partitions[i].verts[wi as usize].links[slot_ij].push(wj);
                        partitions[j].verts[wj as usize].links[slot_ji].push(wi);
                    }
                }
            }
            from_partitions(partitions)
        }

        /// The admission test as it was: `Pr(Pu1 ∘ Pu2) + EPS ≥ α`.
        #[allow(clippy::too_many_arguments)]
        fn joined_pair_ok(
            peg: &Peg,
            query: &QueryGraph,
            decomp: &Decomposition,
            i: usize,
            j: usize,
            vi: &[EntityId],
            vj: &[EntityId],
            alpha: f64,
        ) -> bool {
            joined_pair_prob(peg, query, decomp, i, j, vi, vj).is_some_and(|p| p + EPS >= alpha)
        }

        /// `Pr(Pu1 ∘ Pu2)` of a candidate pair in the product order the
        /// admission decision is defined by; `None` when the pair violates
        /// a join predicate, injectivity or reference compatibility, or its
        /// label/edge product reaches zero.
        pub fn joined_pair_prob(
            peg: &Peg,
            query: &QueryGraph,
            decomp: &Decomposition,
            i: usize,
            j: usize,
            vi: &[EntityId],
            vj: &[EntityId],
        ) -> Option<f64> {
            // Union mapping qnode -> entity.
            let mut mapping: Vec<(QNode, EntityId)> = Vec::new();
            for (paths, vert) in [(i, vi), (j, vj)] {
                for (pos, &n) in decomp.paths[paths].nodes.iter().enumerate() {
                    let e = vert[pos];
                    match mapping.iter().find(|(q, _)| *q == n) {
                        Some((_, prev)) => {
                            if *prev != e {
                                return None; // Join predicate violated.
                            }
                        }
                        None => mapping.push((n, e)),
                    }
                }
            }
            // Injectivity: distinct query nodes, distinct entities.
            for (a, (_, ea)) in mapping.iter().enumerate() {
                for (_, eb) in &mapping[a + 1..] {
                    if ea == eb {
                        return None;
                    }
                    if !peg.graph.refs_disjoint(*ea, *eb) {
                        return None;
                    }
                }
            }
            // Pr(Pu1 ∘ Pu2): labels over union nodes, edges over both paths' edges.
            let mut prle = 1.0;
            for &(n, e) in &mapping {
                prle *= peg.graph.label_prob(e, query.label(n));
                if prle == 0.0 {
                    return None;
                }
            }
            let mut edges: Vec<(QNode, QNode)> = Vec::new();
            for p in [i, j] {
                for e in decomp.paths[p].edges() {
                    if !edges.contains(&e) {
                        edges.push(e);
                    }
                }
            }
            let image = |n: QNode| mapping.iter().find(|(q, _)| *q == n).unwrap().1;
            for (a, b) in edges {
                prle *= peg.graph.edge_prob(image(a), image(b), query.label(a), query.label(b));
                if prle == 0.0 {
                    return None;
                }
            }
            let entities: Vec<EntityId> = mapping.iter().map(|(_, e)| *e).collect();
            Some(prle * peg.prn(&entities))
        }
    }
    use reference::{joined_pair_prob, reference_build};

    /// Arena-for-arena equality, floats by bit pattern.
    fn assert_same_arenas(got: &KPartiteGraph, want: &KPartiteGraph, ctx: &str) {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(got.k, want.k, "{ctx}: k");
        assert_eq!(got.alive, want.alive, "{ctx}: alive");
        assert_eq!(got.alive_n, want.alive_n, "{ctx}: alive_n");
        assert_eq!(bits(&got.w1), bits(&want.w1), "{ctx}: w1");
        assert_eq!(bits(&got.w2), bits(&want.w2), "{ctx}: w2");
        assert_eq!(got.nodes, want.nodes, "{ctx}: nodes");
        assert_eq!(bits(&got.perception), bits(&want.perception), "{ctx}: perception");
        assert_eq!(got.links, want.links, "{ctx}: links");
        assert_eq!(got.link_off, want.link_off, "{ctx}: link_off");
        assert_eq!(got.link_alive, want.link_alive, "{ctx}: link_alive");
        for (g, w) in got.parts.iter().zip(&want.parts) {
            assert_eq!(
                (&g.joined, g.base, g.n, g.path_len, g.nodes_off, g.slot_off),
                (&w.joined, w.base, w.n, w.path_len, w.nodes_off, w.slot_off),
                "{ctx}: partition layout"
            );
        }
    }

    /// New builder at lanes {1, 2} against the reference; returns the graph.
    fn assert_builder_equals_reference(
        peg: &Peg,
        q: &QueryGraph,
        d: &Decomposition,
        sets: &[CandidateSet],
        alpha: f64,
        ctx: &str,
    ) -> KPartiteGraph {
        let want = reference_build(peg, q, d, sets, alpha);
        for lanes in [1usize, 2] {
            let got = build_kpartite(peg, q, d, sets, alpha, &pegpool::pool_with(lanes));
            assert_same_arenas(&got, &want, &format!("{ctx} alpha={alpha} lanes={lanes}"));
        }
        want
    }

    fn retrieve(
        peg: &Peg,
        idx: &OfflineIndex,
        q: &QueryGraph,
        d: &Decomposition,
        alpha: f64,
    ) -> Vec<CandidateSet> {
        let pool = pegpool::pool_with(1);
        let pstats: Vec<PathStats> = d.paths.iter().map(|p| PathStats::new(q, p)).collect();
        retrieve_candidates(peg, idx, q, &d.paths, &pstats, alpha, &pool, None, false)
            .into_iter()
            .map(|got| got.set)
            .collect()
    }

    fn paths(paths: &[&[QNode]]) -> Decomposition {
        Decomposition::from_paths(paths.iter().map(|p| QueryPath { nodes: p.to_vec() }).collect())
    }

    #[test]
    fn builder_equals_reference_on_figure1() {
        for alpha in [0.5, 0.1, 0.02] {
            let peg = PegBuilder::new().build(&figure1_refgraph()).unwrap();
            let idx =
                OfflineIndex::build(&peg, &OfflineOptions::with_len_and_beta(1, 0.01)).unwrap();
            let q = QueryGraph::path(&[Label(1), Label(0), Label(2)]).unwrap();
            let d = decompose(&q, 1, &|_| 1.0, DecompStrategy::CostBased).unwrap();
            let sets = retrieve(&peg, &idx, &q, &d, alpha);
            assert_builder_equals_reference(&peg, &q, &d, &sets, alpha, "figure1");
        }
    }

    /// Generated graphs × hand-picked decompositions covering 1, 2 and 3
    /// shared nodes, a duplicated edge, three mutually joined partitions
    /// and a pair of partitions that do not join — plus whatever the
    /// cost-based planner picks for the same shapes.
    #[test]
    fn builder_equals_reference_on_generated_shapes() {
        let cfg = datagen::SyntheticConfig {
            seed: 7,
            ..datagen::SyntheticConfig::paper_with_uncertainty(160, 0.5)
        };
        let peg = PegBuilder::new().build(&datagen::synthetic_refgraph(&cfg)).unwrap();
        let idx = OfflineIndex::build(&peg, &OfflineOptions::with_len_and_beta(3, 0.02)).unwrap();
        let l = |i: u16| Label(i % peg.graph.label_table().len() as u16);
        let cycle4 = QueryGraph::cycle(&[l(0), l(1), l(0), l(2)]).unwrap();
        let triangle = QueryGraph::cycle(&[l(0), l(1), l(2)]).unwrap();
        let chain5 = QueryGraph::path(&[l(1), l(0), l(2), l(0), l(1)]).unwrap();
        let star = QueryGraph::star(l(0), &[l(1), l(2), l(1)]).unwrap();
        let cases: Vec<(&str, &QueryGraph, Decomposition)> = vec![
            ("chain5 1 shared", &chain5, paths(&[&[0, 1, 2], &[2, 3, 4]])),
            ("chain5 unjoined pair", &chain5, paths(&[&[0, 1], &[1, 2, 3], &[3, 4]])),
            ("triangle 2 shared", &triangle, paths(&[&[0, 1, 2], &[2, 0]])),
            ("cycle4 2 shared", &cycle4, paths(&[&[0, 1, 2], &[2, 3, 0]])),
            ("cycle4 3 shared + duplicate edge", &cycle4, paths(&[&[0, 1, 2, 3], &[2, 3, 0]])),
            ("star 3 partitions", &star, paths(&[&[1, 0], &[0, 2], &[3, 0]])),
            ("triangle planned", &triangle, {
                decompose(&triangle, 2, &|_| 1.0, DecompStrategy::CostBased).unwrap()
            }),
            ("cycle4 planned", &cycle4, {
                decompose(&cycle4, 3, &|_| 1.0, DecompStrategy::CostBased).unwrap()
            }),
        ];
        let (mut links, mut pooled, mut boundaries) = (0usize, false, 0usize);
        for (name, q, d) in &cases {
            for alpha in [0.5, 0.1, 0.02] {
                let sets = retrieve(&peg, &idx, q, d, alpha);
                pooled |= sets.iter().any(|cs| cs.matches.len() >= 64);
                let kp = assert_builder_equals_reference(&peg, q, d, &sets, alpha, name);
                links += kp.links.len();
                // And the graphs reduce identically from there.
                let mut a = build_kpartite(&peg, q, d, &sets, alpha, &pegpool::pool_with(1));
                let mut b = kp;
                a.reduce(alpha, &ReduceOptions::default());
                b.reduce(alpha, &ReduceOptions::default());
                assert_same_arenas(&a, &b, &format!("{name} alpha={alpha} reduced"));
            }
            let sets = retrieve(&peg, &idx, q, d, 0.02);
            let base = reference_build(&peg, q, d, &sets, 0.02);
            boundaries += assert_boundary_decisions(&peg, q, d, &sets, &base, 12);
        }
        assert!(boundaries >= 48, "boundary decisions sampled: {boundaries}");
        assert!(links > 0 && pooled, "cases must link and reach the pooled branches");
    }

    /// Hand-made candidates over the Figure-1 graph at α = 0, where only
    /// the structural checks can reject: `s3`/`s34` and `s4`/`s34` share a
    /// reference, `s34` cannot image two query nodes, and a zero label
    /// probability rejects even though `0 + EPS ≥ 0`.
    #[test]
    fn structural_rejections_match_reference() {
        let peg = PegBuilder::new().build(&figure1_refgraph()).unwrap();
        let q = QueryGraph::path(&[Label(1), Label(0), Label(2)]).unwrap();
        let d = paths(&[&[0, 1], &[1, 2]]);
        let (s1, s2, s3, s4, s34) =
            (EntityId(0), EntityId(1), EntityId(2), EntityId(3), EntityId(4));
        let set = |cands: &[[EntityId; 2]]| {
            let mut matches = PathMatches::new(2);
            for c in cands {
                matches.push(c.iter().map(|v| v.0), 1.0, peg.prn(c));
            }
            CandidateSet { matches, raw_count: cands.len() }
        };
        let sets = [set(&[[s3, s2], [s34, s2], [s4, s2]]), set(&[[s2, s34], [s2, s4], [s2, s1]])];
        let kp = assert_builder_equals_reference(&peg, &q, &d, &sets, 0.0, "structural");
        let p0 = kp.part(0);
        // (s3,s2): s34 shares r3; s4 and s1 are compatible.
        assert_eq!(p0.vert(0).links(0), &[1, 2]);
        // (s34,s2): itself again, s4 shares r4; s1 is compatible.
        assert_eq!(p0.vert(1).links(0), &[2]);
        // (s4,s2): s4 is never labelled `r`, so the product is zero.
        assert_eq!(peg.graph.label_prob(s4, Label(1)), 0.0);
        assert!(p0.vert(2).links(0).is_empty());
    }

    /// Two 5-node paths over the same five query nodes share more images
    /// than one packed key holds: the bucket agrees on the first four and
    /// the admission test must compare the fifth.
    #[test]
    fn pairs_sharing_more_nodes_than_the_key_compare_the_rest() {
        // A complete graph on 8 certain references: small enough that the
        // 5-node paths can be indexed outright.
        let mut table = graphstore::LabelTable::new();
        let labels = [table.intern("a"), table.intern("b"), table.intern("c")];
        let mut refs = graphstore::RefGraph::new(table);
        let ids: Vec<_> = [0, 1, 0, 1, 2, 0, 1, 2]
            .iter()
            .map(|&l| refs.add_ref(LabelDist::delta(labels[l], labels.len())))
            .collect();
        for (a, &ra) in ids.iter().enumerate() {
            for &rb in &ids[a + 1..] {
                refs.add_edge(ra, rb, EdgeProbability::Independent(0.9));
            }
        }
        let peg = PegBuilder::new().build(&refs).unwrap();
        let idx = OfflineIndex::build(&peg, &OfflineOptions::with_len_and_beta(4, 0.3)).unwrap();
        let [a, b, c] = labels;
        let q = QueryGraph::cycle(&[a, b, a, b, c]).unwrap();
        let d = paths(&[&[0, 1, 2, 3, 4], &[4, 0, 1, 2, 3]]);
        assert_eq!(d.shared_nodes(0, 1).len(), 5);
        let sets = retrieve(&peg, &idx, &q, &d, 0.3);
        let kp = assert_builder_equals_reference(&peg, &q, &d, &sets, 0.3, "wide key");
        // Some pair agrees on the packed four and differs on the fifth —
        // so the comparison had something to reject — and some pair links.
        let (p0, p1) = (kp.part(0), kp.part(1));
        let near_miss = (0..p0.n_verts()).any(|a| {
            (0..p1.n_verts()).any(|b| {
                let (x, y) = (p0.vert(a).nodes(), p1.vert(b).nodes());
                x[..4] == y[1..] && x[4] != y[0]
            })
        });
        assert!(near_miss && !kp.links.is_empty());
    }

    /// Rebuilds at thresholds sitting exactly on, and just past, the
    /// admission boundary `p + EPS` of up to `samples` links of `base`
    /// (built from `sets` at a lower α). On the boundary the decision is
    /// one f64 comparison wide, so a product taken in any other order
    /// than the reference's shows up as a missing link.
    fn assert_boundary_decisions(
        peg: &Peg,
        q: &QueryGraph,
        d: &Decomposition,
        sets: &[CandidateSet],
        base: &KPartiteGraph,
        samples: usize,
    ) -> usize {
        let mut linked: Vec<(usize, usize, usize, u32)> = Vec::new();
        for i in 0..base.n_partitions() {
            let p = base.part(i);
            for (slot, &j) in p.joined().iter().enumerate().filter(|&(_, &j)| j > i) {
                for wi in 0..p.n_verts() {
                    linked.extend(p.vert(wi).links(slot).iter().map(|&wj| (i, j, wi, wj)));
                }
            }
        }
        let step = linked.len().div_ceil(samples).max(1);
        let mut checked = 0usize;
        for &(i, j, wi, wj) in linked.iter().step_by(step) {
            let (ni, nj) = (base.part(i).vert(wi).nodes(), base.part(j).vert(wj as usize).nodes());
            let p = joined_pair_prob(peg, q, d, i, j, ni, nj).expect("a linked pair has a product");
            for (alpha, stays) in [(p + EPS, true), (p + 3.0 * EPS, false)] {
                let kp = assert_builder_equals_reference(peg, q, d, sets, alpha, "boundary");
                let slot = kp.part(i).slot_of(j).unwrap();
                assert_eq!(kp.part(i).vert(wi).links(slot).contains(&wj), stays, "p={p}");
            }
            checked += 1;
        }
        checked
    }

    #[test]
    fn alpha_boundary_admits_and_rejects_like_reference() {
        let peg = PegBuilder::new().build(&figure1_refgraph()).unwrap();
        let idx = OfflineIndex::build(&peg, &OfflineOptions::with_len_and_beta(1, 0.01)).unwrap();
        let q = QueryGraph::path(&[Label(1), Label(0), Label(2)]).unwrap();
        let d = paths(&[&[0, 1], &[1, 2]]);
        let sets = retrieve(&peg, &idx, &q, &d, 0.01);
        let base = assert_builder_equals_reference(&peg, &q, &d, &sets, 0.01, "boundary base");
        assert!(assert_boundary_decisions(&peg, &q, &d, &sets, &base, usize::MAX) > 0);
    }

    #[test]
    fn empty_partition_takes_its_path_length_from_the_plan() {
        let peg = PegBuilder::new().build(&figure1_refgraph()).unwrap();
        let idx = OfflineIndex::build(&peg, &OfflineOptions::with_len_and_beta(1, 0.01)).unwrap();
        let q = QueryGraph::path(&[Label(1), Label(0), Label(2)]).unwrap();
        let d = paths(&[&[0, 1], &[1, 2]]);
        let mut sets = retrieve(&peg, &idx, &q, &d, 0.05);
        assert!(!sets[1].matches.is_empty());
        sets[0] = CandidateSet { matches: PathMatches::new(2), raw_count: 0 };
        let mut kp = assert_builder_equals_reference(&peg, &q, &d, &sets, 0.05, "empty partition");
        assert_eq!((kp.parts[0].n, kp.parts[0].path_len), (0, 2));
        assert!(kp.links.is_empty());
        kp.reduce(0.05, &ReduceOptions::default());
        assert_eq!(kp.alive_counts(), vec![0, 0]);
    }
}
