//! End-to-end and per-layer benchmark of the terasim workspace.
//!
//! The benchmark drives the library only through its public API, times
//! those calls from outside, checks every output, and prints every
//! metric of `BENCHMARK.json` by name. See `README.md` in this directory
//! for the workloads, the metrics and the layer map.

pub mod metrics;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;
