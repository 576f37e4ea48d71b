//! The GesturePrint repository benchmark: gesture-to-verdict latency and
//! throughput on two workloads, with a traced per-layer split.
//!
//! See `gpbench/README.md` for the workloads, the metrics and the map
//! from per-layer metrics to the end-to-end metrics they should move.

pub mod capture;
pub mod catalog;
pub mod cohort;
pub mod gallery;
pub mod inputs;
pub mod point_serve;
pub mod report;
pub mod serving;
pub mod setup;
pub mod trace;
pub mod util;
