//! # desis-bench
//!
//! Benchmark harness reproducing the Desis paper's evaluation (Section 6).
//! Every table and figure has a generator function under [`experiments`],
//! callable from the `experiments` binary:
//!
//! ```text
//! cargo run --release -p desis-bench --bin experiments -- fig6b fig9a
//! cargo run --release -p desis-bench --bin experiments -- --scale full all
//! ```
//!
//! Workloads default to laptop scale (the paper uses a 36-core cluster and
//! 100M-event streams); `--scale full` raises the event counts. Shapes —
//! who wins, by roughly what factor, where crossovers fall — are the
//! reproduction target, not absolute numbers.

pub mod experiments;
pub mod figure;
pub mod harness;
pub mod measure;

pub use figure::{Figure, Series};
pub use harness::Harness;
pub use measure::{measure_result_latency, measure_throughput, Scale, SingleNodeRun};
