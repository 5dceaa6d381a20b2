//! Umbrella crate for the mLR reproduction workspace.
//!
//! Exists so the repository-level integration tests (`tests/`) and examples
//! (`examples/`) have a package to hang off; the actual functionality lives
//! in the `crates/mlr-*` workspace members, re-exported here for
//! convenience:
//!
//! * [`mlr_core`] — configuration, pipeline and report (start here).
//! * [`mlr_runtime`] — the multi-job reconstruction runtime with the shared
//!   memoization store.
//! * [`mlr_memo`] — the memoization system (key sketch, per-scope index, stores).
//! * [`mlr_solver`] / [`mlr_lamino`] / [`mlr_fft`] / [`mlr_math`] — the
//!   numerical stack.
//! * [`mlr_sim`] — the hardware cost model the paper-scale projection is
//!   priced with.

pub use mlr_core;
pub use mlr_fft;
pub use mlr_lamino;
pub use mlr_math;
pub use mlr_memo;
pub use mlr_runtime;
pub use mlr_sim;
pub use mlr_solver;
