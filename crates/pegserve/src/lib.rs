#![warn(missing_docs)]

//! `pegserve` — the multi-client query serving layer.
//!
//! The online pipeline's prepared-plan / session split was built for
//! exactly this: a long-lived server holds one
//! [`PlanCache`](pegmatch::online::PlanCache) per loaded graph + index and
//! opens a `QuerySession` per request, so repeated-shape query mixes (the
//! common case for multi-user traffic) pay planning once per shape instead
//! of once per query. This crate supplies the process around that seam:
//!
//! * [`server`] — `std::net` TCP, line-delimited JSON protocol
//!   (`load_graph`, `prepare`, `query`, `query_batch`, `query_topk`,
//!   `stats`, `shutdown`), one handler thread per connection. No async
//!   runtime: the registry is unreachable, so tokio is out of reach, and
//!   blocking threads over the persistent `pegpool` compute pool are all
//!   the online phase needs.
//! * [`admission`] — the query-admission semaphore: bounded concurrent
//!   sessions, bounded wait queue, per-request deadline, structured
//!   `overloaded` / `timeout` rejections so overload degrades predictably
//!   instead of thrashing the pool.
//! * [`client`] — a blocking client (`pegcli client`, tests, and the
//!   pegbench workload driver).
//! * [`json`] — the minimal in-tree JSON value the protocol speaks.
//!
//! Server answers are bit-identical to direct
//! [`QueryPipeline`](pegmatch::online::QueryPipeline) runs with the same
//! graph, threshold, and thread count — serving adds sharing and
//! scheduling, never different results.

pub mod admission;
pub mod client;
pub mod proto;
mod reply;
pub mod server;
pub mod statsjson;

/// The protocol's JSON value, re-exported from [`pegwire`] (it moved
/// below this crate so the shard transport can speak the same encoding
/// without a circular dependency).
pub use pegwire::json;

pub use admission::{AdmissionStats, AdmitError};
pub use client::{Client, ClientError};
pub use json::{obj, Json};
pub use server::{GraphEntry, GraphSpec, GraphStore, Server, ServerConfig, ServerHandle};
