#![warn(missing_docs)]

//! `pathindex` — the context-aware path index (Section 5.1).
//!
//! Indexes every path of the probabilistic entity graph with length at most
//! `L`, total probability (`Prle · Prn`) at least `β`, and no two nodes
//! sharing a reference. Entries are keyed by
//! `⟨label sequence, probability bucket⟩` where buckets have resolution `γ`;
//! the paper's two-level structure (hash on the label sequence, B+-tree on
//! the probability) maps to a hash map over canonical label sequences whose
//! values are probability buckets in memory — each bucket its entries
//! ascending by node tuple, in flat chunks of at most 512 entries (node
//! buffer of stride = sequence length, parallel `Prle` / `Prn` arrays),
//! each chunk shared by `Arc` between index generations, so an update
//! rebuilds only the chunks its changes fall into. Lookups are served
//! from memory only; on disk the index is one flat file ([`mod@file`]),
//! written and read in one pass.
//!
//! Undirected symmetry is folded: a path is stored only under the canonical
//! orientation of its label sequence (ties broken on node ids), and lookups
//! reconstruct directed matches — both directions for palindromic label
//! sequences.
//!
//! Per-sequence histograms at fixed probability points support the
//! cardinality estimation used by query decomposition (exponential
//! interpolation between grid points).

pub mod build;
pub mod file;
pub mod histogram;
mod index;
#[cfg(test)]
mod reference;

pub use build::{build_index, enumerate_paths_online, update_index, IndexUpdateTimes};
pub use index::{
    canonical_label_seq, estimate_from_counts, packed_key, IdentityOracle, NoIdentity, PathIndex,
    PathIndexConfig, PathMatch, PathMatches, StoredPath, KEY_WIDTH,
};

/// Default histogram grid (the paper's "selected probability points").
pub const DEFAULT_HIST_GRID: [f64; 10] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];
