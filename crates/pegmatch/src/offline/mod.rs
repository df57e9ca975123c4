//! The offline phase (Section 5.1): component probabilities (precomputed in
//! [`crate::model::ExistenceModel`]), the context-aware path index, and
//! per-node context information.

pub mod context;

pub use context::ContextInfo;

use crate::error::PegError;
use crate::live::UpdatePhases;
use crate::model::{ExistenceModel, Peg};
use graphstore::{EntityId, Label};
use pathindex::{
    build_index, enumerate_paths_online, update_index, IdentityOracle, PathIndex, PathIndexConfig,
    PathMatches,
};
use std::time::{Duration, Instant};

impl IdentityOracle for ExistenceModel {
    fn prn(&self, nodes: &[EntityId]) -> f64 {
        ExistenceModel::prn(self, nodes)
    }

    fn always_exists(&self, v: EntityId) -> bool {
        ExistenceModel::always_exists(self, v)
    }
}

/// Offline phase parameters.
#[derive(Clone, Debug, Default)]
pub struct OfflineOptions {
    /// Path index construction parameters (`L`, `β`, `γ`, threads, grid).
    pub index: PathIndexConfig,
}

impl OfflineOptions {
    /// Convenience constructor for the common `(L, β)` sweep of the paper.
    pub fn with_len_and_beta(max_len: usize, beta: f64) -> Self {
        Self { index: PathIndexConfig { max_len, beta, ..Default::default() } }
    }
}

/// Timing/size breakdown of the offline phase (Figure 6(a)/(b) rows).
#[derive(Clone, Copy, Debug, Default)]
pub struct OfflineStats {
    /// Wall time of the whole offline phase.
    pub total_time: Duration,
    /// Wall time of path index construction alone.
    pub index_time: Duration,
    /// Wall time of context-information computation alone.
    pub context_time: Duration,
    /// Number of path index entries.
    pub index_entries: usize,
    /// In-memory index size in bytes.
    pub index_bytes: u64,
}

/// The artifacts of the offline phase, consumed by the online pipeline.
#[derive(Clone, Debug)]
pub struct OfflineIndex {
    /// Per-node, per-label context information (`c`, `ppu`, `fpu`).
    pub context: ContextInfo,
    /// The context-aware path index.
    pub paths: PathIndex,
    /// Build statistics.
    pub stats: OfflineStats,
}

impl OfflineIndex {
    /// Runs the offline phase over `peg`.
    pub fn build(peg: &Peg, opts: &OfflineOptions) -> Result<Self, PegError> {
        let t0 = Instant::now();
        let paths = build_index(&peg.graph, &peg.existence, &opts.index);
        let index_time = t0.elapsed();
        let t1 = Instant::now();
        let context = ContextInfo::build(&peg.graph);
        let context_time = t1.elapsed();
        let stats = OfflineStats {
            total_time: t0.elapsed(),
            index_time,
            context_time,
            index_entries: paths.n_entries(),
            index_bytes: paths.approx_bytes(),
        };
        Ok(Self { context, paths, stats })
    }

    /// Rebuilds the offline artifacts after a graph mutation from `dirty`
    /// (per-node flags from [`crate::model::PegBuilder::rebuild`]) instead
    /// of recomputing them over the whole graph; `prev` is the PEG `self`
    /// was built for. The new path index shares every chunk of `self`'s
    /// that no change falls into (cloning it costs a reference per
    /// bucket): [`update_index`] enumerates the entries through a dirty
    /// node in `prev` and in `peg`, and swaps the one set for the other by
    /// key. The context tables are copied and patched at the dirty nodes
    /// and their neighbours ([`ContextInfo::patched`]). `self` is left
    /// untouched — in-flight queries holding it stay consistent — and the
    /// result is entry-, histogram- and context-identical to
    /// [`OfflineIndex::build`] on the mutated `peg`. The time of each step
    /// is recorded into `phases`.
    pub fn rebuild_delta(
        &self,
        prev: &Peg,
        peg: &Peg,
        dirty: &[bool],
        phases: &mut UpdatePhases,
    ) -> Result<Self, PegError> {
        let t0 = Instant::now();
        let mut paths = self.paths.clone();
        phases.index_copy = t0.elapsed();
        let times = update_index(
            &mut paths,
            &prev.graph,
            &prev.existence,
            &peg.graph,
            &peg.existence,
            dirty,
        );
        phases.index_drop = times.drop;
        phases.index_enumerate = times.enumerate;
        phases.histogram = times.histogram;
        let index_time = t0.elapsed();
        let t1 = Instant::now();
        let context = self.context.patched(&peg.graph, dirty);
        let context_time = t1.elapsed();
        phases.context = context_time;
        let stats = OfflineStats {
            total_time: t0.elapsed(),
            index_time,
            context_time,
            index_entries: paths.n_entries(),
            index_bytes: paths.approx_bytes(),
        };
        Ok(Self { context, paths, stats })
    }

    /// `PIndex(labels, alpha)`: index lookup when `alpha ≥ β`, on-demand
    /// enumeration otherwise (the paper's fallback footnote).
    pub fn path_matches(&self, peg: &Peg, labels: &[Label], alpha: f64) -> PathMatches {
        if alpha + 1e-12 >= self.paths.config().beta {
            self.paths.lookup(labels, alpha)
        } else {
            enumerate_paths_online(&peg.graph, &peg.existence, labels, alpha)
        }
    }

    /// Estimated `|PIndex(labels, alpha)|` from histograms; exact fallback
    /// when `alpha < β` is approximated by the count at `β`.
    pub fn estimate_path_count(&self, labels: &[Label], alpha: f64) -> f64 {
        let beta = self.paths.config().beta;
        self.paths.estimate_count(labels, alpha.max(beta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::peg::{figure1_refgraph, PegBuilder};

    #[test]
    fn offline_build_on_figure1() {
        let peg = PegBuilder::new().build(&figure1_refgraph()).unwrap();
        let opts = OfflineOptions::with_len_and_beta(2, 0.05);
        let idx = OfflineIndex::build(&peg, &opts).unwrap();
        assert!(idx.stats.index_entries > 0);
        assert!(idx.stats.index_bytes > 0);

        // The (r, a, i) path lookup must contain (s34, s2, s1) at α = 0.2.
        let (a, r, i) = (Label(0), Label(1), Label(2));
        let got = idx.path_matches(&peg, &[r, a, i], 0.2);
        assert_eq!(got.len(), 1);
        assert_eq!(got.row(0), &[4, 1, 0]);
        assert!((got.prle()[0] - 0.253125).abs() < 1e-9);
        assert!((got.prn()[0] - 0.8).abs() < 1e-9);
    }

    #[test]
    fn below_beta_falls_back_to_enumeration() {
        let peg = PegBuilder::new().build(&figure1_refgraph()).unwrap();
        // β = 0.5 excludes the 0.1 path from the index...
        let opts = OfflineOptions::with_len_and_beta(2, 0.5);
        let idx = OfflineIndex::build(&peg, &opts).unwrap();
        let (a, r, i) = (Label(0), Label(1), Label(2));
        assert!(idx.paths.lookup(&[r, a, i], 0.05).iter().all(|m| m.prob() >= 0.5 - 1e-12));
        // ...but path_matches at α = 0.05 still finds it on demand.
        let got = idx.path_matches(&peg, &[r, a, i], 0.05);
        assert!(got.iter().any(|m| (m.prob() - 0.1).abs() < 1e-9));
    }

    #[test]
    fn estimate_count_is_positive_for_indexed_paths() {
        let peg = PegBuilder::new().build(&figure1_refgraph()).unwrap();
        let opts = OfflineOptions::with_len_and_beta(2, 0.05);
        let idx = OfflineIndex::build(&peg, &opts).unwrap();
        let (a, r, i) = (Label(0), Label(1), Label(2));
        assert!(idx.estimate_path_count(&[r, a, i], 0.1) >= 1.0);
    }
}
