//! # hwst-perfbench
//!
//! End-to-end and per-layer benchmark of the HWST128 reproduction's
//! compile → validate → execute pipeline. A single-threaded closed loop
//! runs one job at a time over a fixed job set (23 kernels × the four
//! Fig. 4 schemes); each pass visits the set in a permutation drawn from
//! the seed. See `perfbench/README.md` for the workloads and metrics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod job;
pub mod report;
pub mod run;
pub mod setup;
pub mod trace;
