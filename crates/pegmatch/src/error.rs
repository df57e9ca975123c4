//! Error type for model construction and query processing.

use std::fmt;

/// Errors surfaced by `pegmatch` operations.
#[derive(Clone, Debug, PartialEq)]
pub enum PegError {
    /// An existence component exceeded the configured enumeration budget
    /// (too many entity sets or too many valid configurations).
    ComponentTooLarge {
        /// Number of entity sets in the offending component.
        sets: usize,
        /// The configured limit that was exceeded.
        limit: usize,
    },
    /// A reference graph or query failed validation.
    Invalid(String),
    /// A query references a label outside the graph's alphabet.
    UnknownLabel(String),
    /// A candidate source backed by remote shard workers could not reach
    /// one of them during retrieval. Carries the failing shard index so
    /// serving layers can surface a structured `shard_unavailable` reply;
    /// the query as a whole fails (partial candidate lists would silently
    /// change results, which the bit-exactness contract forbids).
    ShardUnavailable {
        /// Index of the unreachable shard.
        shard: usize,
        /// Transport-level detail (address, io error, peer reply).
        detail: String,
    },
}

impl fmt::Display for PegError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PegError::ComponentTooLarge { sets, limit } => write!(
                f,
                "existence component with {sets} entity sets exceeds the limit of {limit}; \
                 raise `ExistenceOptions` limits or use smaller reference sets"
            ),
            PegError::Invalid(msg) => write!(f, "invalid input: {msg}"),
            PegError::UnknownLabel(l) => write!(f, "unknown label: {l}"),
            PegError::ShardUnavailable { shard, detail } => {
                write!(f, "shard {shard} unavailable: {detail}")
            }
        }
    }
}

impl std::error::Error for PegError {}
