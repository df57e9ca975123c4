//! One shard of one graph: the unit every sharded store runs.
//!
//! A [`WorkerShard`] holds one shard — the `(subgraph, OfflineIndex,
//! owned bitmap)` triple `Shard::build` cuts from the full graph — plus
//! what it needs to follow a live graph: the reference network and the
//! full compiled graph. A worker process holds one per loaded graph
//! (`shard_load`); an [`InProcessTransport`](crate::InProcessTransport)
//! holds one per shard. Either way a shard is built, queried, updated and
//! versioned by the code in this file, and `Shard::build` and
//! `shard::affected_shards` are called from nowhere else; only the bytes
//! in between differ.
//!
//! Determinism is what lets a worker build its shard from a generator
//! spec instead of receiving a partitioned graph: same placement hash,
//! same halo rule, same monotone renumbering, same index build, so the
//! shard is bit-for-bit the one any other process would cut. The
//! coordinator cross-checks the full graph's node/edge counts from the
//! `shard_load` reply to catch spec or version drift.
//!
//! # Live updates and versions
//!
//! An update names the mutation batch plus the version the shard must
//! move to (its current version + 1). The shard re-derives itself from
//! the mutated reference network through `live::batch_step` — rebuilding
//! only when the dirty ball actually reaches this shard's halo
//! (`shard::affected_shards`), reusing the previous `Arc<Shard>`
//! otherwise. A shard keeps its **last two** versions so scatters from
//! sessions that planned against the pre-update snapshot (retrieves pin
//! a version) still answer bit-exactly while the successor store takes
//! over. Version bookkeeping is strict: a retrieve for a version this
//! shard no longer holds (or never reached) is a structured error, an
//! update resending the already-latest version is the idempotent retry
//! the transport's redial-and-resend failure handling can produce, and
//! anything else out of sequence is rejected — two coordinators cannot
//! silently interleave updates.

use crate::shard::{affected_shards, halo_for, Shard, ShardInfo, ShardSummary};
use crate::transport::{PathPartial, ShardReply};
use crate::wire::HistogramEntries;
use graphstore::{GraphOp, RefGraph};
use pegmatch::error::PegError;
use pegmatch::live;
use pegmatch::model::PegBuilder;
use pegmatch::offline::OfflineOptions;
use pegmatch::online::{PathStats, QueryPath};
use pegmatch::query::QueryGraph;
use pegmatch::Peg;
use pegpool::ThreadPool;
use pegtrace::{SpanNode, Tracer};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One answered scatter leg ([`WorkerShard::retrieve_leg`]).
pub struct ShardLeg {
    /// The shard's per-path partials.
    pub reply: ShardReply,
    /// Wall time of the retrieval: the `"shard_retrieve"` span's clock,
    /// read whether or not the leg was traced.
    pub elapsed: Duration,
    /// The leg's `"shard_retrieve"` subtree, when it was traced.
    pub span: Option<SpanNode>,
}

/// The versioned state behind a [`WorkerShard`]: the reference network
/// and full compiled graph (inputs to the next mutation) plus the shard
/// snapshots it keeps live — the latest and its predecessor, so in-flight
/// sessions on the pre-update version finish consistently while new
/// sessions ride the update. Everything is behind `Arc` so retrieves and
/// update computation run on snapshots, holding the lock only to clone
/// handles in and out.
struct WorkerState {
    refs: Arc<RefGraph>,
    full: Arc<Peg>,
    /// The latest shard snapshot and its version.
    latest: (u64, Arc<Shard>),
    /// The snapshot `latest` replaced, if any.
    previous: Option<(u64, Arc<Shard>)>,
}

/// One shard of one graph, held by a worker process or by an
/// [`InProcessTransport`](crate::InProcessTransport).
pub struct WorkerShard {
    opts: OfflineOptions,
    shard_index: usize,
    n_shards: usize,
    n_labels: usize,
    state: Mutex<WorkerState>,
}

impl WorkerShard {
    /// Builds shard `shard` of `n_shards` from the reference network and
    /// the **full** compiled graph (both consumed: they seed version 0
    /// and future updates). Every process cuts shard `shard` alike, so a
    /// worker's shard is identical to an in-process one.
    pub fn build(
        refs: RefGraph,
        full: Peg,
        opts: &OfflineOptions,
        shard: usize,
        n_shards: usize,
    ) -> Result<WorkerShard, PegError> {
        if shard >= n_shards {
            return Err(PegError::Invalid(format!(
                "shard index {shard} out of range for {n_shards} shards"
            )));
        }
        let halo = halo_for(n_shards, opts.index.max_len.max(1));
        let n_labels = full.graph.label_table().len();
        let built = Shard::build(&full, opts, shard, n_shards, halo)?;
        Ok(WorkerShard {
            opts: opts.clone(),
            shard_index: shard,
            n_shards,
            n_labels,
            state: Mutex::new(WorkerState {
                refs: Arc::new(refs),
                full: Arc::new(full),
                latest: (0, Arc::new(built)),
                previous: None,
            }),
        })
    }

    /// This worker's shard index.
    pub fn shard_index(&self) -> usize {
        self.shard_index
    }

    /// The latest shard version this worker holds.
    pub fn version(&self) -> u64 {
        self.state.lock().unwrap().latest.0
    }

    /// Size and ownership breakdown of this shard (latest version).
    pub fn info(&self) -> ShardInfo {
        self.latest().info()
    }

    /// Home-only histogram counts of the latest version (see
    /// [`ShardSummary::hist`]).
    pub fn histogram(&self) -> HistogramEntries {
        self.latest().histogram()
    }

    /// The latest version's summary — the `shard_load` reply body. The
    /// coordinator cross-checks its full-graph counts against its own
    /// build to catch spec drift.
    pub fn summary(&self) -> ShardSummary {
        let (full, (version, shard)) = {
            let state = self.state.lock().unwrap();
            (state.full.clone(), state.latest.clone())
        };
        ShardSummary { version, ..shard.summary(&full) }
    }

    fn latest(&self) -> Arc<Shard> {
        self.state.lock().unwrap().latest.1.clone()
    }

    /// Resolves a request's shard snapshot: `None` means latest; a
    /// version this worker no longer holds (superseded twice over) or
    /// never reached is a structured error.
    fn shard_at(&self, version: Option<u64>) -> Result<Arc<Shard>, PegError> {
        let state = self.state.lock().unwrap();
        let Some(v) = version else {
            return Ok(state.latest.1.clone());
        };
        let held = [Some(&state.latest), state.previous.as_ref()]
            .into_iter()
            .flatten()
            .find(|(held, _)| *held == v)
            .map(|(_, shard)| shard.clone());
        held.ok_or_else(|| {
            PegError::Invalid(format!(
                "shard version {v} not held (worker is at {}, keeps the latest two)",
                state.latest.0
            ))
        })
    }

    /// Executes one retrieval request against the requested shard
    /// snapshot (`None` = latest), untraced: [`retrieve_leg`](Self::retrieve_leg)'s
    /// reply alone.
    pub fn retrieve(
        &self,
        query: &QueryGraph,
        paths: &[QueryPath],
        alpha: f64,
        version: Option<u64>,
        pool: &ThreadPool,
    ) -> Result<ShardReply, PegError> {
        self.retrieve_leg(query, paths, alpha, version, None, pool).map(|leg| leg.reply)
    }

    /// One scatter leg, as both transports run it: per decomposition path,
    /// raw index lookup, context pruning, home filtering, canonical sort,
    /// globalization — `Shard::retrieve_paths`, fanned over `pool` —
    /// against the requested snapshot (`None` = latest), timed by a
    /// `"shard_retrieve"` root span tagged `shard`, `alpha` and `n_paths`.
    ///
    /// With a `trace_id`, the span records into a tracer of its own, with
    /// one pre-measured `"path"` child (with `lookup` / `prune` / `sort`
    /// children) per decomposition path, attached in path order after the
    /// parallel join, so the returned subtree is a deterministic function
    /// of the request. Without one, the span reads its two clocks for
    /// [`ShardLeg::elapsed`] and the paths read none.
    ///
    /// Refused before any lookup, as a structured error: a query label
    /// outside this graph's alphabet (a coordinator/worker mismatch), a
    /// path that no plan over this shard's index produces — one that
    /// repeats a query node, or has more than `max(max_len, 1) + 1` nodes,
    /// which below β would enumerate with no length bound — and a version
    /// this worker no longer holds.
    pub fn retrieve_leg(
        &self,
        query: &QueryGraph,
        paths: &[QueryPath],
        alpha: f64,
        version: Option<u64>,
        trace_id: Option<u64>,
        pool: &ThreadPool,
    ) -> Result<ShardLeg, PegError> {
        for &l in query.labels() {
            if (l.0 as usize) >= self.n_labels {
                return Err(PegError::UnknownLabel(format!(
                    "label id {} outside this graph's {}-label alphabet",
                    l.0, self.n_labels
                )));
            }
        }
        let longest = self.opts.index.max_len.max(1) + 1;
        for (i, path) in paths.iter().enumerate() {
            let nodes = &path.nodes;
            if nodes.len() > longest {
                return Err(PegError::Invalid(format!(
                    "path {i} has {} nodes; this shard's index answers paths of at most {longest}",
                    nodes.len()
                )));
            }
            if (1..nodes.len()).any(|j| nodes[..j].contains(&nodes[j])) {
                return Err(PegError::Invalid(format!("path {i} repeats a query node")));
            }
        }
        let shard = self.shard_at(version)?;
        let tracer = trace_id.map_or_else(Tracer::disabled, Tracer::enabled);
        let span = tracer.stage("shard_retrieve");
        span.tag("shard", self.shard_index);
        span.tag("alpha", alpha);
        span.tag("n_paths", paths.len());
        let pstats: Vec<PathStats> = paths.iter().map(|p| PathStats::new(query, p)).collect();
        let recording = span.is_recording();
        let partials = shard
            .retrieve_paths(query, paths, &pstats, alpha, pool, recording)
            .into_iter()
            .enumerate()
            .map(|(i, got)| {
                if recording {
                    let unit = got.trace(&span, "path");
                    unit.tag("path", i);
                    unit.tag("raw", got.set.raw_count);
                    unit.tag("pruned", got.pruned_total);
                }
                PathPartial::from(got)
            })
            .collect();
        let elapsed = span.finish();
        Ok(ShardLeg { reply: ShardReply { paths: partials }, elapsed, span: tracer.take().pop() })
    }

    /// Applies a mutation batch, advancing this shard to `version`
    /// (which must be latest + 1). Clone-compute-commit: the heavy work
    /// runs on snapshots with the lock released, so retrieves are never
    /// blocked behind an update; the commit re-checks that no concurrent
    /// update raced ahead.
    ///
    /// A resend of the already-latest `version` is acknowledged without
    /// recomputing (the transport redials and resends once on failure,
    /// so a worker that applied the batch but lost the connection before
    /// replying will see the same line again). Any other out-of-sequence
    /// version is an error — updates cannot skip or interleave.
    pub fn apply_update(&self, ops: &[GraphOp], version: u64) -> Result<ShardSummary, PegError> {
        let (refs, full, (latest_version, latest_shard)) = {
            let state = self.state.lock().unwrap();
            (state.refs.clone(), state.full.clone(), state.latest.clone())
        };
        // The idempotent-resend acknowledgement: reports the already-
        // applied state without recomputing anything.
        let ack = |full: &Peg, shard: &Shard| ShardSummary {
            version,
            rebuilt: false,
            ..shard.summary(full)
        };
        if version == latest_version {
            return Ok(ack(&full, &latest_shard));
        }
        if version != latest_version + 1 {
            return Err(PegError::Invalid(format!(
                "shard_update to version {version} out of sequence (worker is at {latest_version})"
            )));
        }

        // Compute against the snapshots, lock released: the one batch step.
        let (new_refs, _, delta, _) = live::batch_step(&PegBuilder::new(), &refs, &full, ops)?;
        let n_dirty = delta.dirty.iter().filter(|d| **d).count();
        let halo = halo_for(self.n_shards, self.opts.index.max_len.max(1));
        let affected =
            affected_shards(&full.graph, &delta.peg.graph, &delta.dirty, self.n_shards, halo);
        let rebuilt = affected[self.shard_index];
        let new_shard = if rebuilt {
            Arc::new(Shard::build(&delta.peg, &self.opts, self.shard_index, self.n_shards, halo)?)
        } else {
            latest_shard
        };
        let new_full = Arc::new(delta.peg);

        // Commit, unless a concurrent update raced this one.
        let mut state = self.state.lock().unwrap();
        let now = state.latest.0;
        if now == version {
            // A concurrent resend of the same batch committed first; the
            // graphs are identical by determinism, so acknowledge its.
            let shard = state.latest.1.clone();
            let full = state.full.clone();
            drop(state);
            return Ok(ack(&full, &shard));
        }
        if now != latest_version {
            return Err(PegError::Invalid(format!(
                "shard_update to version {version} lost a race (worker moved to {now})"
            )));
        }
        state.refs = Arc::new(new_refs);
        state.full = new_full.clone();
        let replaced = std::mem::replace(&mut state.latest, (version, new_shard.clone()));
        state.previous = Some(replaced);
        drop(state);

        Ok(ShardSummary { version, rebuilt, n_dirty, ..new_shard.summary(&new_full) })
    }
}
