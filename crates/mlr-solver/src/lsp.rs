//! The laminography subproblem (LSP).
//!
//! The LSP refines `u` against `f(u) = ½‖L u − d‖₂² + ρ/2 ‖∇u − g‖₂²`,
//! `g = ψ − λ/ρ`, with a few CG-style iterations driven by the gradient
//! `G = L*(L u − d) + ρ ∇ᵀ(∇u − g)`. The solver runs the paper's
//! Algorithm 2 ([`lsp_gradient_cancelled`]): the data is mapped to the
//! frequency domain once (`d̂ = F_2D d`), the `F*_2D`/`F_2D` pair cancels,
//! and the subtraction `d̂' − d̂` is fused with the neighbouring USFFT stage
//! — four FFT stages per inner iteration. Algorithm 1 (six stages: `F*_2D`
//! back to detector space, `F_2D` out of it) lives only in the repository's
//! test reference loop, which holds this gradient (to 1e-8) and whole solves
//! (to 1e-6) to it: the claim behind operation cancellation.

use crate::admm::AdmmWorkspace;
use mlr_fft::fft2d::to_complex;
use mlr_lamino::{FftExecutor, LaminoOperator};
use mlr_math::{Array3, Complex64, Shape3};

/// Precomputed frequency-domain data for Algorithm 2 (`d̂ = F_2D d`,
/// computed once per ADMM run).
pub struct FrequencyData {
    dhat: Array3<Complex64>,
    plane_scale: f64,
}

impl FrequencyData {
    /// Maps the measured projections to the frequency domain (Algorithm 2
    /// line 2).
    pub fn new(op: &LaminoOperator, d: &Array3<f64>) -> Self {
        let dhat = op.f2d(&to_complex(d));
        let g = op.geometry();
        let plane_scale = 1.0 / (g.detector.rows * g.detector.cols) as f64;
        Self { dhat, plane_scale }
    }

    /// Algorithm 2's fused subtraction (one GPU kernel in the paper) in one
    /// pass over `d̂′`: turns it into `r̂ = H(d̂′ − d̂) / (h·w)` in place and
    /// returns `½‖Lu − d‖²` by Parseval. `H` replaces each plane `X` by
    /// `(X + conj(X mirrored))/2`, the mirror taken modulo the DFT grid: the
    /// frequency-domain form of Algorithm 1 keeping `Re F*_2D d̂′`, which
    /// makes the cancellation exact. Each mirror pair is written at its
    /// first index, so an index is final when the pass reaches it and the
    /// loss sums and scales it there, in index order.
    pub fn fused_residual(&self, dhat_prime: &mut Array3<Complex64>) -> f64 {
        assert_eq!(dhat_prime.shape(), self.dhat.shape(), "d̂′ shape mismatch");
        let (n_theta, h, w) = dhat_prime.shape().dims();
        let (r, d) = (dhat_prime.as_mut_slice(), self.dhat.as_slice());
        let scale = self.plane_scale;
        // The start value of `f64: Sum`.
        let mut sum = -0.0;
        let mut p = 0;
        for t in 0..n_theta {
            for m in 0..h {
                let mm = (h - m) % h;
                for n in 0..w {
                    let nn = (w - n) % w;
                    if (m, n) <= (mm, nn) {
                        let q = (t * h + mm) * w + nn;
                        let sym = ((r[p] - d[p]) + (r[q] - d[q]).conj()).scale(0.5);
                        r[p] = sym;
                        r[q] = sym.conj();
                    }
                    sum += r[p].norm_sqr();
                    r[p] = r[p].scale(scale);
                    p += 1;
                }
            }
        }
        0.5 * scale * sum
    }
}

/// Evaluates the LSP gradient at `ws.u` under Algorithm 2 (cancellation +
/// fusion) into `ws.grad`; returns the data loss `½‖Lu − d‖²`. Allocates
/// nothing: every intermediate lives in the workspace.
pub fn lsp_gradient_cancelled(
    op: &LaminoOperator,
    ws: &mut AdmmWorkspace,
    freq: &FrequencyData,
    rho: f64,
    exec: &dyn FftExecutor,
) -> f64 {
    // Forward pass stays in the frequency domain: d̂' = F_u2D F_u1D u.
    ws.forward(op, exec);
    let data_loss = freq.fused_residual(&mut ws.dhat);
    // Adjoint pass: G_data = F*_u1D F*_u2D r̂ — no uniform FFT stages.
    ws.back(op, rho, exec);
    data_loss
}

/// CG-style update state: the paper's `u ← CG(u, G, G_prev)` consumes the
/// current and previous gradients; this implementation uses the
/// Barzilai–Borwein step (a quasi-CG scheme that needs exactly that state).
/// Within one LSP the last step moved `u` by `Δu = −α_prev·G_prev`, so the
/// history is one buffer, `G_prev`, and two scalars: `α_prev` and
/// `‖G_prev‖²`. Each update copies `G` into the buffer.
#[derive(Debug, Clone)]
pub struct CgState {
    prev_grad: Array3<f64>,
    /// `α_prev`; 0 for an empty history, which fails the BB guard.
    prev_step: f64,
    prev_sqr: f64,
}

impl CgState {
    /// An empty history for iterates of `shape`.
    pub fn new(shape: Shape3) -> Self {
        Self {
            prev_grad: Array3::zeros(shape),
            prev_step: 0.0,
            prev_sqr: 0.0,
        }
    }

    /// Forgets the history: the next update uses `initial_step` again.
    pub fn reset(&mut self) {
        self.prev_step = 0.0;
    }

    /// Applies one update `u ← u − α G`, with `α` from the Barzilai–Borwein
    /// formula when a previous step exists and `initial_step` otherwise.
    /// Returns the step size used.
    pub fn update(&mut self, u: &mut Array3<f64>, grad: &Array3<f64>, initial_step: f64) -> f64 {
        // BB1, α = ⟨Δu, Δu⟩ / ⟨Δu, ΔG⟩ = α_prev‖G_prev‖² / ⟨G_prev, G_prev − G⟩,
        // summed as `Array3::dot` sums; the same pass moves G into the history.
        let (mut denom, mut sqr) = (-0.0, -0.0);
        for (&g, pg) in grad.as_slice().iter().zip(self.prev_grad.as_mut_slice()) {
            denom += *pg * (*pg - g);
            sqr += g * g;
            *pg = g;
        }
        let (step, prev_sqr) = (self.prev_step, self.prev_sqr);
        let alpha = if step * denom > 1e-30 && prev_sqr > 0.0 {
            // Keep the BB step within a moderate band around the first
            // step: when a memoized gradient repeats the previous one,
            // ΔG ≈ 0 and the raw BB ratio blows up.
            (step * prev_sqr / denom).clamp(0.05 * initial_step, 20.0 * initial_step)
        } else {
            initial_step
        };
        (self.prev_step, self.prev_sqr) = (alpha, sqr);
        u.axpby(1.0, grad, -alpha);
        alpha
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlr_fft::fft2d::to_real;
    use mlr_lamino::{DirectExecutor, LaminoGeometry};
    use mlr_math::rng::seeded;
    use rand::Rng;

    fn small_setup() -> (LaminoOperator, Array3<f64>, Array3<f64>) {
        let op = LaminoOperator::new(LaminoGeometry::cube(8, 6, 32.0), 4);
        let mut rng = seeded(3);
        let mut random = |shape: Shape3| {
            let values = (0..shape.len()).map(|_| rng.gen::<f64>() - 0.5);
            Array3::from_vec(shape, values.collect())
        };
        let u = random(op.geometry().volume_shape());
        let d = random(op.geometry().data_shape());
        (op, u, d)
    }

    fn max_abs(a: &Array3<f64>) -> f64 {
        a.as_slice().iter().fold(0.0, |m, x| m.max(x.abs()))
    }

    /// A workspace at iterate `u` with `ψ = λ = 0`.
    fn workspace_at(op: &LaminoOperator, u: &Array3<f64>) -> AdmmWorkspace {
        let mut ws = AdmmWorkspace::new(op);
        ws.u = u.clone();
        ws
    }

    #[test]
    fn gradient_is_zero_at_exact_solution_without_regulariser() {
        // If d = L u_true and we evaluate at u_true with λ = 0 and ρ → 0,
        // the gradient vanishes.
        let (op, u_true, _) = small_setup();
        let d = op.forward(&u_true);
        let (mut ws, freq) = (workspace_at(&op, &u_true), FrequencyData::new(&op, &d));
        let data_loss = lsp_gradient_cancelled(&op, &mut ws, &freq, 1e-12, &DirectExecutor);
        let max = max_abs(&ws.grad);
        assert!(
            max < 1e-6 * max_abs(&u_true).max(1.0),
            "gradient at solution {max}"
        );
        assert!(data_loss < 1e-10);
    }

    #[test]
    fn gradient_descends_the_objective() {
        let (op, u, d) = small_setup();
        let rho = 0.1;
        let (mut ws, freq) = (workspace_at(&op, &u), FrequencyData::new(&op, &d));
        let loss = lsp_gradient_cancelled(&op, &mut ws, &freq, rho, &DirectExecutor);
        // Take a small step along -G and check the objective decreases.
        let step = 1e-3;
        let grad = ws.grad.clone();
        ws.u.axpby(1.0, &grad, -step);
        let loss2 = lsp_gradient_cancelled(&op, &mut ws, &freq, rho, &DirectExecutor);
        assert!(loss2 <= loss + 1e-12, "{loss} -> {loss2}");
    }

    #[test]
    fn cg_state_bb_step_changes_after_first_update() {
        let shape = Shape3::cube(4);
        let mut u = Array3::filled(shape, 1.0);
        let grad = Array3::filled(shape, 0.5);
        let mut cg = CgState::new(shape);
        let a0 = cg.update(&mut u, &grad, 0.1);
        assert!((a0 - 0.1).abs() < 1e-12);
        // Second step with the same gradient: denominator <du, dg> == 0 so it
        // falls back to the initial step; with a different gradient BB kicks
        // in and produces a positive step.
        let grad2 = Array3::filled(shape, 0.25);
        let a1 = cg.update(&mut u, &grad2, 0.1);
        assert!(a1 > 0.0);
        // A reset history steps by the initial step again.
        cg.reset();
        assert_eq!(cg.update(&mut u, &grad, 0.1), 0.1);
    }

    #[test]
    fn frequency_data_loss_matches_detector_space() {
        let (op, u, d) = small_setup();
        let freq = FrequencyData::new(&op, &d);
        // Compute ||Lu - d||^2 / 2 both ways: in detector space and via the
        // Hermitian-projected frequency-domain residual (Parseval).
        let mut r = op.forward(&u);
        r.axpby(1.0, &d, -1.0);
        let direct = 0.5 * r.dot(&r);

        let mut rhat = op.fu2d(&op.fu1d(&u), &DirectExecutor);
        let via_freq = freq.fused_residual(&mut rhat);
        assert!(
            (direct - via_freq).abs() < 1e-8 * direct.max(1.0),
            "{direct} vs {via_freq}"
        );
    }

    #[test]
    fn hermitian_projection_matches_real_part_roundtrip() {
        // H in the frequency domain == taking Re() in detector space.
        let (op, u, _) = small_setup();
        let u1 = op.fu1d(&u);
        let dhat_prime = op.fu2d(&u1, &DirectExecutor);
        // Path A: project (fused residual against d̂ = 0), then invert.
        let zero = FrequencyData {
            dhat: Array3::zeros(dhat_prime.shape()),
            plane_scale: 1.0,
        };
        let mut projected = dhat_prime.clone();
        zero.fused_residual(&mut projected);
        let a = op.f2d_inverse(&projected);
        // Path B: inverse FFT, then drop the imaginary part.
        let b = to_real(&op.f2d_inverse(&dhat_prime));
        let max_diff = a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(x, y)| (x.re - y).abs().max(x.im.abs()))
            .fold(0.0, f64::max);
        assert!(max_diff < 1e-9, "projection mismatch {max_diff}");
    }
}
