//! # mlr-core
//!
//! The public face of the mLR reproduction: one configuration type, one
//! pipeline type, one report type.
//!
//! ```no_run
//! use mlr_core::{MlrConfig, MlrPipeline};
//!
//! // A small brain-phantom problem with memoization at τ = 0.92.
//! let config = MlrConfig::quick(24, 12);
//! let pipeline = MlrPipeline::new(config);
//! let report = pipeline.run_comparison();
//! println!("accuracy vs exact ADMM-FFT: {:.3}", report.accuracy);
//! println!("FFT work avoided: {:.1} %", 100.0 * report.avoided_fraction);
//! ```
//!
//! The pipeline runs the *numerics* for real (phantom → projections → exact
//! and memoized ADMM-TV reconstructions) and, on request, projects the
//! measured behaviour onto paper-scale problems (1K³–2K³) using the hardware
//! cost model in `mlr-sim`.

pub mod config;
pub mod pipeline;
pub mod report;

pub use config::{MlrConfig, ProblemSpec, Scale};
pub use pipeline::{MlrPipeline, STORE_ITERATIONS};
pub use report::{ExactQuality, MlrReport, PaperScaleProjection};
// Re-exported so serving layers over the pipeline (e.g. `mlr-runtime`) can
// drive cooperative cancellation without depending on the solver crate.
pub use mlr_solver::{CancelToken, StopCause};
