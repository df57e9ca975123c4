#![warn(missing_docs)]

//! `bench` — the experiment harness regenerating every table and figure of
//! the paper's evaluation (Section 6).
//!
//! The `experiments` binary (`cargo run -p bench --release --bin
//! experiments -- <figure> [--scale tiny|small|paper]`) prints paper-style
//! series.
//! See EXPERIMENTS.md at the repository root for the recorded outputs.

pub mod report;
pub mod workloads;

pub use report::{fmt_duration, fmt_log10, Table};
pub use workloads::{Scale, Workload};
