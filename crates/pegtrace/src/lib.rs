//! Request tracing and process metrics for the serving pipeline — the
//! bottom observability crate, with **zero dependencies** so every layer
//! (pegmatch sessions, pegshard scatter units, pegserve handlers, CLI
//! load generators) can emit into the same two primitives:
//!
//! * [`Tracer`] / [`Span`] — a per-request span tree built by RAII
//!   guards. A span names one stage (`"retrieve"`, `"reduce"`, one
//!   `(shard, path)` scatter unit), carries typed tags (shard id, cache
//!   hit/miss, candidate counts), and nests: guards created from a span
//!   become its children, and whole subtrees decoded off the wire (a
//!   worker's side of a scatter) graft on with [`Span::adopt`]. A
//!   disabled tracer is a true no-op: `span()` returns an inert guard —
//!   no allocation, no lock, no clock read — so tracing can stay wired
//!   through every hot path unconditionally. A stage whose duration is
//!   also a statistic opens with `stage()`, which keeps the clock read
//!   (and nothing else) when disabled.
//!
//! * [`MetricsRegistry`] — named [`Counter`]s and fixed-bucket log-scale
//!   latency [`Histogram`]s. Histograms are lock-free to record
//!   (atomics), mergeable (element-wise bucket sums), and read out
//!   quantiles by exact rank walk over the buckets, with the maximum
//!   tracked exactly. A registry is a plain value: each server owns
//!   one, and a test — or a load generator reporting per-run client-side
//!   latencies — can own a private one.
//!
//! # Determinism
//!
//! Span *structure* (names, nesting, tag keys and non-timing tag values)
//! is a pure function of the request: parallel stages record their
//! measurements locally and the coordinator attaches child spans in
//! deterministic index order after the join, never in racy arrival
//! order. Only elapsed times and trace ids vary between runs — exactly
//! the fields the differential tests strip.

mod metrics;
mod span;

pub use metrics::{Counter, Histogram, HistogramSnapshot, MetricsRegistry};
pub use span::{Span, SpanNode, TagValue, Tracer};
