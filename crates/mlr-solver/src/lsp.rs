//! The laminography subproblem (LSP).
//!
//! The LSP refines `u` against `f(u) = ½‖L u − d‖₂² + ρ/2 ‖∇u − g‖₂²`,
//! `g = ψ − λ/ρ`, with a few CG-style iterations driven by the gradient
//! `G = L*(L u − d) + ρ ∇ᵀ(∇u − g)`. The solver runs the paper's
//! Algorithm 2 ([`lsp_gradient_cancelled`]): the data is mapped to the
//! frequency domain once (`d̂ = F_2D d`), the `F*_2D`/`F_2D` pair cancels,
//! and the subtraction `d̂′ − d̂` is fused with the fill and the fold around
//! it into one pass over the half spectrum `ŝ` — four FFT stages per inner
//! iteration, and no full spectrum held. Algorithm 1 (six stages: `F*_2D`
//! back to detector space, `F_2D` out of it) lives only in the repository's
//! test reference loop, which holds this gradient (to 1e-8) and whole solves
//! (to 1e-6) to it: the claim behind operation cancellation.

use crate::admm::AdmmWorkspace;
use mlr_fft::fft2d::to_complex;
use mlr_lamino::{FftExecutor, LaminoGeometry, LaminoOperator};
use mlr_math::{Array3, Complex64, Shape3};

/// A row read in DFT-mirror order: element `n` is `row[(w − n) % w]`.
fn dft_mirrored<T>(row: &[T]) -> impl Iterator<Item = &T> {
    std::iter::once(&row[0]).chain(row[1..].iter().rev())
}

/// Row `m` of `H(X)` for an `h × w` plane `X`, as a pass in index order
/// writes it. `H` turns each DFT pair `a ≤ b = ((h − a₀) % h, (w − a₁) % w)`
/// into `(X[a] + conj(X[b]))/2` at `a`, then its conjugate at `b`: the
/// frequency-domain form of keeping `Re F*_2D`.
fn projected_row(plane: &[Complex64], h: usize, m: usize) -> impl Iterator<Item = Complex64> + '_ {
    let (w, mm) = (plane.len() / h, (h - m) % h);
    let mirror = dft_mirrored(&plane[mm * w..][..w]);
    let row = plane[m * w..][..w].iter().zip(mirror).enumerate();
    row.map(move |(n, (&x, &y))| {
        // Whether `(m, n)` precedes its mirror `(mm, (w − n) % w)`.
        if m < mm || (m == mm && 0 < n && 2 * n < w) {
            (x + y.conj()).scale(0.5)
        } else {
            (y + x.conj()).scale(0.5).conj()
        }
    })
}

/// Precomputed frequency-domain data for Algorithm 2, built once per ADMM
/// run: rows `0..=h/2` of `H(d̂)`, `d̂ = F_2D d`, laid out as `ŝ` is,
/// `(h/2 + 1, nθ, w)`. `H(d̂)` is conjugate-symmetric, so every other row
/// is a conjugate of these; and `H(d̂′ − H(d̂)) = H(d̂′ − d̂)`.
pub struct FrequencyData {
    half: Array3<Complex64>,
    geometry: LaminoGeometry,
}

impl FrequencyData {
    /// Maps the measured projections to the frequency domain (Algorithm 2
    /// line 2) and keeps the projected rows `0..=h/2`.
    pub fn new(op: &LaminoOperator, d: &Array3<f64>) -> Self {
        let (geometry, dhat) = (op.geometry().clone(), op.f2d(&to_complex(d)));
        let (n_theta, h, w) = dhat.shape().dims();
        let planes = dhat.as_slice().chunks_exact(h * w);
        let rows = (0..geometry.half_rows()).flat_map(|m| {
            let planes = planes.clone();
            planes.flat_map(move |plane| projected_row(plane, h, m))
        });
        let shape = Shape3::new(geometry.half_rows(), n_theta, w);
        // Sized up front: a flat map's size hint would grow it by doubling.
        let mut half = Vec::with_capacity(shape.len());
        half.extend(rows);
        let half = Array3::from_vec(shape, half);
        Self { half, geometry }
    }

    /// Algorithm 2's fused subtraction (one GPU kernel in the paper) in one
    /// pass over the half spectrum `ŝ = F_u2D F_u1D u`: turns it into the
    /// fold of `r̂ = H(d̂′ − d̂) / (h·w)`, which `F*_u2D` reads, and returns
    /// `½‖Lu − d‖²` by Parseval. `d̂′` is `ŝ` filled. Angle by angle, the
    /// pass forms the plane `d̂′ − H(d̂)` in `plane` before it overwrites the
    /// angle's `ŝ`: the fill mirrors about the centred frequency and `H`
    /// modulo the DFT grid, which at an odd side pair different points.
    /// Each point of the plane is then projected, summed and scaled in index
    /// order and accumulated into `ŝ` as the fold does, copy first,
    /// conjugate mirror second.
    pub fn fused_residual(&self, half: &mut Array3<Complex64>, plane: &mut Vec<Complex64>) -> f64 {
        let g = &self.geometry;
        assert_eq!(half.shape(), g.half_spectrum_shape(), "ŝ shape mismatch");
        let (h, w, n_theta) = (g.detector.rows, g.detector.cols, g.n_angles());
        let (rows, cols, top) = (g.half_rows(), g.half_cols(), 2 * (h / 2));
        let mirrored = g.mirror_col(w - 1)..=g.mirror_col(0);
        let (s, d) = (half.as_mut_slice(), self.half.as_slice());
        let scale = 1.0 / (h * w) as f64;
        // The start value of `f64: Sum`.
        let mut sum = -0.0;
        for t in 0..n_theta {
            plane.clear();
            for m in 0..h {
                if m < rows {
                    let x = &s[(m * n_theta + t) * cols..][..w];
                    let y = &d[(m * n_theta + t) * w..][..w];
                    plane.extend(x.iter().zip(y).map(|(&x, &y)| x - y));
                } else {
                    // The fill's mirror of row `top − m` minus `H(d̂)`'s DFT
                    // mirror of row `h − m`.
                    let x = s[((top - m) * n_theta + t) * cols..][mirrored.clone()].iter();
                    let y = dft_mirrored(&d[((h - m) * n_theta + t) * w..][..w]);
                    plane.extend(x.rev().zip(y).map(|(x, y)| x.conj() - y.conj()));
                }
            }
            for m in 0..h {
                let row = &mut s[(m.min(top - m) * n_theta + t) * cols..][..cols];
                if m < rows {
                    row[w..].fill(Complex64::ZERO);
                }
                for (n, r) in projected_row(plane, h, m).enumerate() {
                    sum += r.norm_sqr();
                    let r = r.scale(scale);
                    if m < rows {
                        row[n] = r;
                    } else {
                        row[g.mirror_col(n)] += r.conj();
                    }
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
    // Forward pass stays in the frequency domain: ŝ = F_u2D F_u1D u.
    op.fu1d_into(&ws.u, &mut ws.u1);
    op.fu2d_half_into(&ws.u1, exec, &mut ws.half);
    let data_loss = freq.fused_residual(&mut ws.half, &mut ws.plane);
    // Adjoint pass: G = Re F*_u1D F*_u2D r̂ + ρ ∇ᵀ(∇u − ψ + λ/ρ) — no
    // uniform FFT stages.
    op.fu2d_half_adjoint_into(&ws.half, exec, &mut ws.u1);
    op.fu1d_adjoint_into(&ws.u1, &mut ws.grad);
    ws.dual.add_coupling_gradient(&mut ws.grad, &ws.u, rho);
    data_loss
}

/// CG-style update state: the paper's `u ← CG(u, G, G_prev)` consumes the
/// current and previous gradients; this implementation uses the
/// Barzilai–Borwein step (a quasi-CG scheme that needs exactly that state).
/// Within one LSP the last step moved `u` by `Δu = −α_prev·G_prev`, so the
/// history is one buffer, `G_prev`, and two scalars: `α_prev` and
/// `‖G_prev‖²`. Each update copies `G` into the buffer, narrowed to `f32`;
/// the sums read the `f64` gradient and accumulate in `f64`.
#[derive(Debug, Clone)]
pub struct CgState {
    prev_grad: Array3<f32>,
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

    /// Applies one update `u ← u − α G` in `f64`, narrowing each voxel once,
    /// with `α` from the Barzilai–Borwein formula when a previous step
    /// exists and `initial_step` otherwise. Returns the step size used.
    pub fn update(&mut self, u: &mut Array3<f32>, grad: &Array3<f64>, initial_step: f64) -> f64 {
        // BB1, α = ⟨Δu, Δu⟩ / ⟨Δu, ΔG⟩ = α_prev‖G_prev‖² / ⟨G_prev, G_prev − G⟩,
        // summed as `Array3::dot` sums; the same pass moves G into the history.
        let (mut denom, mut sqr) = (-0.0, -0.0);
        for (&g, pg) in grad.as_slice().iter().zip(self.prev_grad.as_mut_slice()) {
            let prev = f64::from(*pg);
            denom += prev * (prev - g);
            sqr += g * g;
            *pg = g as f32;
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
        // The reference loop's `u.axpby(1.0, grad, −α)`, narrowed once.
        for (x, &g) in u.as_mut_slice().iter_mut().zip(grad.as_slice()) {
            *x = (f64::from(*x) + g * -alpha) as f32;
        }
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

    /// An operator, a random iterate (rounded to `f32` once, so the
    /// workspace holds it exactly) and random data.
    fn small_setup() -> (LaminoOperator, Array3<f64>, Array3<f64>) {
        let op = LaminoOperator::new(LaminoGeometry::cube(8, 6, 32.0), 4);
        let mut rng = seeded(3);
        let mut random = |shape: Shape3| {
            let values = (0..shape.len()).map(|_| rng.gen::<f64>() - 0.5);
            Array3::from_vec(shape, values.collect())
        };
        let mut u = random(op.geometry().volume_shape());
        u.map_inplace(|v| *v = f64::from(*v as f32));
        let d = random(op.geometry().data_shape());
        (op, u, d)
    }

    fn max_abs(a: &Array3<f64>) -> f64 {
        a.as_slice().iter().fold(0.0, |m, x| m.max(x.abs()))
    }

    /// A workspace at iterate `u` with `ψ = λ = 0`.
    fn workspace_at(op: &LaminoOperator, u: &Array3<f64>) -> AdmmWorkspace {
        let mut ws = AdmmWorkspace::new(op);
        let values = u.as_slice().iter().map(|&v| v as f32);
        ws.u = Array3::from_vec(u.shape(), values.collect());
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
        CgState::new(u.shape()).update(&mut ws.u, &grad, step);
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
        let r = op.forward(&u);
        let pairs = r.as_slice().iter().zip(d.as_slice());
        let direct = 0.5 * pairs.map(|(x, y)| (x - y) * (x - y)).sum::<f64>();

        let mut half = Array3::zeros(op.geometry().half_spectrum_shape());
        op.fu2d_half_into(&op.fu1d(&u), &DirectExecutor, &mut half);
        let via_freq = freq.fused_residual(&mut half, &mut Vec::new());
        assert!(
            (direct - via_freq).abs() < 1e-8 * direct.max(1.0),
            "{direct} vs {via_freq}"
        );
    }

    #[test]
    fn hermitian_projection_matches_real_part_roundtrip() {
        // H in the frequency domain == taking Re() in detector space.
        let (op, u, _) = small_setup();
        let dhat_prime = op.fu2d(&op.fu1d(&u), &DirectExecutor);
        let (shape, (_, h, w)) = (dhat_prime.shape(), dhat_prime.shape().dims());
        let planes = dhat_prime.as_slice().chunks_exact(h * w);
        let projected =
            planes.flat_map(|plane| (0..h).flat_map(move |m| projected_row(plane, h, m)));
        // Path A: project, then invert; path B: invert, then drop Im.
        let a = op.f2d_inverse(&Array3::from_vec(shape, projected.collect()));
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
