//! The outer ADMM driver.
//!
//! One ADMM iteration runs the four phases of §5.1 of the paper:
//!
//! 1. **LSP** — `N_inner` CG-style refinements of `u` against the data term
//!    and the augmented TV coupling (this is where all the FFT work, and all
//!    of mLR's memoization, happens);
//! 2. **RSP** — closed-form shrinkage update of the auxiliary variable `ψ`;
//! 3. **λ update** — dual ascent on the constraint `∇u = ψ`;
//! 4. **penalty update** — residual balancing of `ρ`.
//!
//! `ψ` and `λ` are held as one [`DualField`], the RSP's shrink argument;
//! phases 2–4 are one pass over the volume ([`DualField::rsp_update`]), and
//! every phase runs in one [`AdmmWorkspace`] allocated when the run starts:
//! about `3.5 + |ũ1| + |ŝ|` `f64` volumes (u, the dual field and `G_prev`
//! in `f32`, G in `f64`, and the operator intermediates `ũ1` and `ŝ` in
//! chunk layout, which the memoizable stages read and write in place), the
//! state a slab driver would page. Every update of the `f32` state runs in
//! `f64` and narrows once; every sum accumulates in `f64`.
//!
//! The driver takes any `FftExecutor`, so the same code path produces the
//! exact baseline (direct executor), the memoized run (mLR's engine) and the
//! instrumented runs behind the evaluation figures.

use crate::cancel::{CancelToken, StopCause};
use crate::lsp::{lsp_gradient_cancelled, CgState, FrequencyData};
use crate::metrics::{ConvergenceHistory, IterationRecord};
use crate::tv::DualField;
use mlr_lamino::{DirectExecutor, FftExecutor, LaminoOperator};
use mlr_math::{Array3, Complex64};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// ADMM configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmmConfig {
    /// Number of outer ADMM iterations.
    pub outer_iterations: usize,
    /// Number of inner CG iterations per LSP solve (`N_inner`, paper: 4).
    pub n_inner: usize,
    /// TV regularisation weight `α`.
    pub alpha: f64,
    /// Initial augmented-Lagrangian penalty `ρ`.
    pub rho: f64,
    /// Initial gradient-descent step for the first CG update.
    pub initial_step: f64,
}

impl Default for AdmmConfig {
    fn default() -> Self {
        Self {
            outer_iterations: 20,
            n_inner: 4,
            alpha: 1e-3,
            rho: 0.5,
            initial_step: 0.05,
        }
    }
}

/// Result of one ADMM run.
pub struct AdmmResult {
    /// The reconstructed volume.
    pub reconstruction: Array3<f64>,
    /// Per-iteration loss and timing records.
    pub history: ConvergenceHistory,
    /// Final penalty value.
    pub final_rho: f64,
    /// `Some` when the run stopped early at an iteration boundary because
    /// its [`CancelToken`] was cancelled or its deadline expired; `None` for
    /// a run that completed every configured iteration.
    pub stopped: Option<StopCause>,
}

/// Every buffer an ADMM solve uses. An iteration allocates nothing beyond
/// the executor's chunk results.
pub struct AdmmWorkspace {
    /// The iterate `u`, in `f32`.
    pub u: Array3<f32>,
    /// The auxiliary variable `ψ ≈ ∇u` and the Lagrange multiplier `λ`.
    pub dual: DualField,
    /// The last LSP gradient `G`, in `f64`: it is narrowed only into the
    /// history.
    pub grad: Array3<f64>,
    /// The Barzilai–Borwein history of the inner iterations.
    pub cg: CgState,
    /// `ũ1`, shared by the forward and the adjoint pass.
    pub(crate) u1: Array3<Complex64>,
    /// The half spectrum `ŝ`, likewise; the LSP turns it into the folded
    /// residual spectrum.
    pub(crate) half: Array3<Complex64>,
    /// One angle's residual plane `d̂′ − H(d̂)`, which that pass reads
    /// while it overwrites the angle's `ŝ`.
    pub(crate) plane: Vec<Complex64>,
}

impl AdmmWorkspace {
    /// A zeroed workspace for `op`'s geometry (`u = ψ = λ = 0`).
    pub fn new(op: &LaminoOperator) -> Self {
        let (g, shape) = (op.geometry(), op.geometry().volume_shape());
        Self {
            u: Array3::zeros(shape),
            dual: DualField::zeros(shape),
            grad: Array3::zeros(shape),
            cg: CgState::new(shape),
            u1: Array3::zeros(g.u1_shape()),
            half: Array3::zeros(g.half_spectrum_shape()),
            plane: Vec::with_capacity(g.detector.rows * g.detector.cols),
        }
    }
}

/// The ADMM-FFT solver.
pub struct AdmmSolver {
    config: AdmmConfig,
}

impl AdmmSolver {
    /// Creates a solver with the given configuration.
    ///
    /// # Panics
    /// Panics when `config.initial_step` is not positive and finite.
    pub fn new(config: AdmmConfig) -> Self {
        let step = config.initial_step;
        let valid = step.is_finite() && step > 0.0;
        assert!(valid, "initial_step must be positive and finite: {step}");
        Self { config }
    }

    /// Runs ADMM-FFT with the direct (exact) executor.
    pub fn run(&self, op: &LaminoOperator, d: &Array3<f64>) -> AdmmResult {
        self.run_with(op, d, &DirectExecutor)
    }

    /// Runs ADMM-FFT with an explicit executor (e.g. mLR's memoized engine).
    pub fn run_with(
        &self,
        op: &LaminoOperator,
        d: &Array3<f64>,
        exec: &dyn FftExecutor,
    ) -> AdmmResult {
        self.run_with_cancel(op, d, exec, &CancelToken::new())
    }

    /// Runs ADMM-FFT with an explicit executor under a [`CancelToken`]: the
    /// token is polled at every outer-iteration boundary, and a run that is
    /// cancelled (or whose deadline passes) stops cleanly there — the
    /// executor's `finish` hook still runs, and the entries a memoizing
    /// executor already published keep serving other tenants.
    /// With a token that never fires, the run is bit-identical to
    /// [`AdmmSolver::run_with`].
    pub fn run_with_cancel(
        &self,
        op: &LaminoOperator,
        d: &Array3<f64>,
        exec: &dyn FftExecutor,
        cancel: &CancelToken,
    ) -> AdmmResult {
        let data_shape = op.geometry().data_shape();
        assert_eq!(d.shape(), data_shape, "projection data shape mismatch");
        // Algorithm 2 maps the data to the frequency domain once, before
        // the workspace exists, so its transient does not stack on it.
        let freq = FrequencyData::new(op, d);
        let cfg = &self.config;
        let mut ws = AdmmWorkspace::new(op);
        let mut rho = cfg.rho;
        let mut history = ConvergenceHistory::new();

        let mut stopped = None;
        for iteration in 0..cfg.outer_iterations {
            if let Some(cause) = cancel.should_stop() {
                stopped = Some(cause);
                break;
            }
            exec.begin_iteration(iteration);

            // ------------------------------------------------------- LSP
            #[expect(clippy::disallowed_methods, reason = "decoration: phase seconds")]
            let lsp_start = Instant::now();
            ws.cg.reset();
            let mut data_loss = 0.0;
            for _ in 0..cfg.n_inner {
                data_loss = lsp_gradient_cancelled(op, &mut ws, &freq, rho, exec);
                ws.cg.update(&mut ws.u, &ws.grad, cfg.initial_step);
            }
            // Attenuation coefficients are physically non-negative.
            ws.u.map_inplace(|v| *v = v.max(0.0));
            let lsp_seconds = lsp_start.elapsed().as_secs_f64();

            // ------------------------------ RSP, λ and penalty updates
            // One pass updates the dual field and sums what the loss and the
            // ρ rule read. ρ balances residuals: the dual one, ~ ρ‖ψ_k − ψ_{k−1}‖,
            // approximated by the primal/ψ balance (Boyd §3.4 heuristic).
            #[expect(clippy::disallowed_methods, reason = "decoration: phase seconds")]
            let rsp_start = Instant::now();
            let sums = ws.dual.rsp_update(&ws.u, cfg.alpha, rho);
            let primal_res = sums.primal_sqr.sqrt();
            let psi_norm = sums.psi_sqr.sqrt().max(1e-12);
            if primal_res > 10.0 * psi_norm {
                rho *= 2.0;
            } else if psi_norm > 10.0 * primal_res {
                rho *= 0.5;
            }
            rho = rho.clamp(1e-6, 1e6);
            let rsp_seconds = rsp_start.elapsed().as_secs_f64();

            history.push(IterationRecord {
                iteration,
                loss: data_loss + cfg.alpha * sums.tv,
                data_loss,
                lsp_seconds,
                rsp_seconds,
                lambda_seconds: 0.0,
                penalty_seconds: 0.0,
            });
        }

        // The job is done (or stopped early): tell the executor, even for a
        // cancelled run (the memoizing executor buffers nothing, so its
        // entries are already published).
        exec.finish();

        // Widened once the data and every other workspace array are gone
        // (`{ ws }` drops all but `u` at the end of its statement), so the
        // tail holds `u` twice: 1.5 volumes.
        drop(freq);
        let u = { ws }.u;
        let widened = u.as_slice().iter().map(|&v| f64::from(v)).collect();
        AdmmResult {
            reconstruction: Array3::from_vec(u.shape(), widened),
            history,
            final_rho: rho,
            stopped,
        }
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests set wall deadlines")]
mod tests {
    use super::*;
    use mlr_lamino::{LaminoDataset, LaminoOperator};
    use mlr_math::norms::relative_error;
    use std::time::Duration;

    fn small_dataset() -> (LaminoOperator, LaminoDataset) {
        let ds = LaminoDataset::brain_cube(12, 8, 32.0, 5);
        let op = LaminoOperator::new(ds.geometry.clone(), 4);
        (op, ds)
    }

    fn quick_config(outer: usize) -> AdmmConfig {
        AdmmConfig {
            outer_iterations: outer,
            n_inner: 3,
            alpha: 1e-4,
            ..AdmmConfig::default()
        }
    }

    #[test]
    fn loss_decreases_over_iterations() {
        let (op, ds) = small_dataset();
        let solver = AdmmSolver::new(quick_config(8));
        let result = solver.run(&op, &ds.projections);
        let series = result.history.loss_series();
        assert_eq!(series.len(), 8);
        let first = series[0].1;
        let last = series.last().unwrap().1;
        assert!(last < first, "loss did not decrease: {first} -> {last}");
        assert!(result.final_rho > 0.0);
    }

    #[test]
    fn reconstruction_approaches_ground_truth() {
        let (op, ds) = small_dataset();
        let solver = AdmmSolver::new(quick_config(15));
        let result = solver.run(&op, &ds.projections);
        // The reconstruction need not be perfect after 15 iterations at this
        // tiny scale, but it must be much closer to the truth than the zero
        // initialisation.
        let err = relative_error(&ds.ground_truth, &result.reconstruction);
        let zero_err = relative_error(&ds.ground_truth, &Array3::zeros(ds.ground_truth.shape()));
        assert!(
            err < 0.8 * zero_err,
            "err {err} vs zero baseline {zero_err}"
        );
        // Non-negativity was enforced.
        assert!(result.reconstruction.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn history_phase_times_populated() {
        let (op, ds) = small_dataset();
        let solver = AdmmSolver::new(quick_config(2));
        let result = solver.run(&op, &ds.projections);
        for r in result.history.records() {
            assert!(r.lsp_seconds > 0.0);
            assert!(r.total_seconds() >= r.lsp_seconds);
        }
        // The LSP dominates execution time, as in Figure 2.
        assert!(result.history.lsp_fraction() > 0.5);
    }

    #[test]
    fn pre_cancelled_token_stops_before_the_first_iteration() {
        let (op, ds) = small_dataset();
        let token = CancelToken::new();
        token.cancel();
        let solver = AdmmSolver::new(quick_config(8));
        let result = solver.run_with_cancel(&op, &ds.projections, &DirectExecutor, &token);
        assert_eq!(result.stopped, Some(StopCause::Cancelled));
        assert!(result.history.records().is_empty());
        // The zero initialisation is returned untouched.
        assert!(result.reconstruction.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn expired_deadline_stops_the_run() {
        let (op, ds) = small_dataset();
        let token = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        let solver = AdmmSolver::new(quick_config(8));
        let result = solver.run_with_cancel(&op, &ds.projections, &DirectExecutor, &token);
        assert_eq!(result.stopped, Some(StopCause::DeadlineExpired));
        assert!(result.history.records().is_empty());
    }

    #[test]
    fn idle_token_is_bit_identical_to_plain_run() {
        let (op, ds) = small_dataset();
        let solver = AdmmSolver::new(quick_config(5));
        let plain = solver.run(&op, &ds.projections);
        let token = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        let tokened = solver.run_with_cancel(&op, &ds.projections, &DirectExecutor, &token);
        assert_eq!(tokened.stopped, None);
        assert_eq!(
            plain.reconstruction.as_slice(),
            tokened.reconstruction.as_slice(),
            "an idle cancel token changed the reconstruction"
        );
    }

    #[test]
    fn non_positive_or_non_finite_step_is_rejected() {
        for initial_step in [-1.0, 0.0, f64::NAN, f64::INFINITY] {
            let config = AdmmConfig {
                initial_step,
                ..quick_config(1)
            };
            let panic = std::panic::catch_unwind(|| AdmmSolver::new(config)).err();
            let message = panic.and_then(|p| p.downcast_ref::<String>().cloned());
            let expected = format!("initial_step must be positive and finite: {initial_step}");
            assert_eq!(message, Some(expected));
        }
    }

    #[test]
    #[should_panic(expected = "projection data shape mismatch")]
    fn mismatched_data_shape_panics() {
        let (op, _) = small_dataset();
        let bad = Array3::zeros(mlr_math::Shape3::cube(4));
        let _ = AdmmSolver::new(AdmmConfig::default()).run(&op, &bad);
    }
}
