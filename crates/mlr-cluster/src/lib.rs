//! # mlr-cluster (retired)
//!
//! This crate held the memory-node side of a simulated distributed memo
//! tier: entry-to-node placement and the replay of a recorded access trace
//! through a modeled link per node. No memory node runs in this repository
//! (the runtime's workers share one `mlr_memo::MemoDb` in process),
//! so a link priced from a datasheet constant measured nothing and the
//! crate has no items. It stays only because `mlr-memo` and `mlr-bench`
//! depend on it and those dependencies are recorded in the repository
//! benchmark's frozen `examples/benchmark/Cargo.lock`; the crate and the
//! dependencies go together when that lock is next rewritten.

#![warn(missing_docs)]
