//! End-to-end and per-layer benchmark of the ProtoGen workspace.
//!
//! One binary runs one workload per process (`--workload`), checks every
//! result against a pinned answer, and prints one JSON result line: the
//! end-to-end metrics of an untraced run, or the per-layer metrics of a
//! traced one (`--trace 1`). See `README.md` in this directory.

#![forbid(unsafe_code)]

pub mod host;
pub mod layers;
pub mod procfs;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
