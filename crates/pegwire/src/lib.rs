#![warn(missing_docs)]

//! `pegwire` — the wire-protocol atoms every networked peg component
//! speaks.
//!
//! Extracted from `pegserve` so the shard transport (`pegshard`) can
//! serialize requests and replies without depending on the serving layer
//! (which itself depends on `pegshard` — the JSON value had to move below
//! both). Three pieces live here:
//!
//! * [`json`] — the minimal in-tree JSON value with a compact writer and
//!   a hardened parser (depth-capped, f64 bit-exact round trip). This is
//!   the encoding every protocol line uses, coordinator↔client and
//!   coordinator↔shard-worker alike; its number and string writers are
//!   public, for lines written without building a value.
//! * [`base64`] — unpadded base64, for the one payload that is columns of
//!   bytes rather than a tree of values (the shard reply's candidates).
//! * [`line`](mod@line) — the one connection (`LineConn`): a request is
//!   one framed write and its reply the next line read, one exchange at a
//!   time, with optional connect and whole-reply deadlines.
//!   `pegserve::Client` is one without deadlines; the shard transport
//!   keeps idle ones per worker and overlaps concurrent scatters on
//!   separate connections.
//!
//! A multi-process scatter-gather is bit-exact because no probability is
//! ever rounded on the wire: as JSON numbers (client replies, mutation
//! batches) they go through the shortest-round-trip `{}` formatting
//! documented on [`json`] and come back with identical bits; in the shard
//! reply's column payload they are `f64::to_bits` verbatim.

pub mod base64;
pub mod json;
pub mod line;

pub use json::{obj, Json, JsonError, ObjBuilder};
pub use line::{LineConn, LineError};
