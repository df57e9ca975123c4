#![warn(missing_docs)]

//! `pegwire` — the wire-protocol atoms every networked peg component
//! speaks.
//!
//! Extracted from `pegserve` so the shard transport (`pegshard`) can
//! serialize requests and replies without depending on the serving layer
//! (which itself depends on `pegshard` — the JSON value had to move below
//! both). Two pieces live here:
//!
//! * [`json`] — the minimal in-tree JSON value with a compact writer and
//!   a hardened parser (depth-capped, f64 bit-exact round trip). This is
//!   the encoding every protocol line uses, coordinator↔client and
//!   coordinator↔shard-worker alike.
//! * [`mux`] — a multiplexed connection (`MuxConn`): many in-flight
//!   requests on one socket, each carrying a connection-unique `"id"`
//!   the peer echoes, with out-of-order replies routed back to the
//!   caller that sent the matching request.
//!
//! The f64 round-trip guarantee documented on [`json`] is what makes a
//! multi-process scatter-gather bit-exact: probabilities cross the wire
//! through the shortest-round-trip `{}` formatting and come back with
//! identical bits.

pub mod json;
pub mod mux;

pub use json::{obj, Json, JsonError, ObjBuilder};
pub use mux::{Demux, DemuxError, MuxConn, MuxError, PendingReply};
