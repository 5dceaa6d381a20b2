//! # mlr-solver
//!
//! The ADMM-FFT laminography solver the paper accelerates.
//!
//! Laminography reconstruction with total-variation regularisation solves
//!
//! ```text
//! min_u  ½‖L u − d‖₂² + α‖u‖_TV
//! ```
//!
//! by ADMM: the **laminography subproblem** (LSP) refines `u` with a few
//! CG-style iterations against the FFT-factored operator `L`; the
//! **regularisation subproblem** (RSP) updates the auxiliary variable `ψ`
//! with a shrinkage step; the Lagrange multiplier `λ` and the penalty `ρ` are
//! then updated. The crate provides:
//!
//! * [`tv`] — gradient, its adjoint, TV norm and shrinkage, fused into the
//!   one-pass forms the solver runs over its `f32` dual field.
//! * [`lsp`] — the LSP gradient the solver runs (Algorithm 2: cancelled and
//!   fused over the half spectrum) and the CG-style update that consumes it.
//! * [`admm`] — the outer ADMM driver with loss tracking, phase timing and
//!   pluggable `FftExecutor` (this is where mLR's memoization engine slots
//!   in), and the [`AdmmWorkspace`] it runs in.
//! * [`metrics`] — the paper's reconstruction-quality metrics (Eq. 4/5) and
//!   convergence histories.

pub mod admm;
pub mod cancel;
pub mod lsp;
pub mod metrics;
pub mod tv;

pub use admm::{AdmmConfig, AdmmResult, AdmmSolver, AdmmWorkspace};
pub use cancel::{CancelToken, StopCause};
pub use lsp::FrequencyData;
pub use metrics::{accuracy_vs_reference, ConvergenceHistory};
pub use tv::DualField;
