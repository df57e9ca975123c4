#![warn(missing_docs)]

//! `graphstore` — storage for reference graphs and probabilistic entity graphs.
//!
//! The paper's prototype keeps its graphs in Neo4j; this crate is that
//! substrate, specialized to the data model of the paper:
//!
//! * [`RefGraph`] — the *reference-level* input network: references with
//!   label distributions, uncertain edges, and reference sets (potential
//!   entities) with raw existence-factor values. This is the storage half of
//!   the probabilistic graph description (PGD, Definition 1).
//! * [`EntityGraph`] — the *entity-level* probabilistic entity graph `G_U`
//!   that query processing operates on: one node per reference set, merged
//!   label distributions, merged (possibly label-conditional) edge
//!   probabilities, CSR adjacency, and per-node reference lists used to
//!   enforce the "no two nodes share a reference" constraint.
//! * [`csv`] — a [`RefGraph`] as CSV files in a directory, the one form a
//!   graph takes on disk: the entity graph is always compiled from it.
//!
//! Label strings are interned into dense [`Label`] ids via [`LabelTable`];
//! distributions are dense vectors over the label alphabet.

pub mod csv;
pub mod dist;
pub mod entity;
pub mod hash;
pub mod labels;
pub mod ops;
pub mod refgraph;
pub mod stats;

pub use dist::{CondTable, EdgeProbability, LabelDist, LabelRow};
pub use entity::{
    sorted_disjoint, EntityEdge, EntityGraph, EntityGraphBuilder, EntityId, EntityNode,
    EntityNodes, UNREACHED,
};
pub use labels::{Label, LabelTable};
pub use ops::GraphOp;
pub use refgraph::{EntityRef, RefEdge, RefGraph, RefId, RefNode, RefSet, RefSetId};
pub use stats::GraphStats;
