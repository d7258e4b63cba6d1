//! Benchmark harness: workload generators and figure reproduction
//! support.
//!
//! One binary per figure/experiment of the paper's §5 (see DESIGN.md's
//! per-experiment index). Each binary prints CSV — the x value followed
//! by one column per series, matching the series the paper plots — so
//! the output can be compared directly against the published figures.

pub mod env;
pub mod harness;
pub mod runner;
pub mod workloads;

pub use harness::{print_header, print_row, Figure};
pub use runner::{comparator_rtt, ours_rtt, solo_session, BenchOpts, Sweep, Topo};
pub use workloads::*;
