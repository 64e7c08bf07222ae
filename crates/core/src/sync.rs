//! Swappable synchronization primitives.
//!
//! Concurrency-sensitive modules ([`crate::obs`], [`crate::obs::trace`])
//! import `Mutex`/`MutexGuard` and the `atomic` types from here instead
//! of `std::sync`. A normal build re-exports `std`, so there is zero
//! cost; building with `RUSTFLAGS="--cfg loom"` swaps in the vendored
//! loom-lite primitives, whose `loom::model` harness then exhaustively
//! explores every thread interleaving of those modules (see
//! `crates/core/tests/loom.rs`).
//!
//! `Arc` intentionally stays `std` in both builds: the model checks
//! target the mutable hot-path state (counters, rings, registration
//! maps), not reference counting.

#[cfg(loom)]
pub use loom::sync::{atomic, Mutex, MutexGuard};

#[cfg(not(loom))]
pub use std::sync::{atomic, Mutex, MutexGuard};
